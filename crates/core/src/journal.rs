//! Journaled, resumable engine run-state.
//!
//! [`Durable`] threads a checksummed write-ahead journal
//! ([`obs::journal`]) through the engine's phase checkpoints
//! (miter → sim → per-round sweep state → sweep → final_solve → trim →
//! verdict) and doubles as the crash-injection hook: a
//! [`CrashPoint`] armed on a `Durable` fires at its phase checkpoint,
//! either as a typed [`CecError::CrashInjected`] or as a real
//! `process::abort` (kill-9 equivalent) *after* the journal is synced.
//!
//! # Resume model
//!
//! The engine is byte-for-byte deterministic for a given input pair,
//! option set, and thread count, so recovery does not reconstruct
//! solver state from the journal — it *re-executes* deterministically
//! and cross-validates every checkpoint it reaches against the
//! journaled prefix. A journal whose header does not match the inputs
//! or options is rejected up front ([`CecError::Journal`]); a
//! checkpoint that disagrees with its journaled twin is a
//! [`CecError::ReplayDivergence`]. Once the prefix is exhausted, new
//! checkpoints append to the same journal, so the resumed run's
//! journal is the uninterrupted run's journal. The final verdict
//! record carries the FNV-1a fingerprint of the TraceCheck proof, so
//! "resumed to a byte-identical proof" is a checkable claim, not an
//! assumption.

use crate::outcome::CecError;
use crate::EngineConfig;
use aig::Aig;
use obs::hash::fnv1a64_hex;
use obs::journal::{read_journal_file, JournalWriter, Record};
use obs::json::Value;
use std::collections::HashMap;
use std::path::Path;

/// Journal format version written in the header record.
pub const JOURNAL_FORMAT: u64 = 1;

/// What an armed crash does when it fires.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CrashMode {
    /// Return [`CecError::CrashInjected`] — an in-process crash the
    /// caller observes as a typed error.
    Error,
    /// `std::process::abort()` — the kill-9 equivalent. The journal is
    /// synced first, so the aborted process leaves a valid journal
    /// (at worst with a torn final line).
    Abort,
}

/// A crash armed at the `hit`-th live occurrence of a phase checkpoint.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CrashPoint {
    /// Checkpoint phase name: `"miter"`, `"sim"`, `"round"`, `"sweep"`,
    /// `"final_solve"`, or `"trim"`.
    pub phase: String,
    /// 1-based occurrence at which to fire (`"round"` is the only phase
    /// that checkpoints more than once per run).
    pub hit: u32,
    /// Error or abort.
    pub mode: CrashMode,
}

impl CrashPoint {
    /// Parses a `phase[:hit]` spec (e.g. `"sweep"`, `"round:3"`).
    ///
    /// # Errors
    ///
    /// Unknown phase names and malformed hit counts.
    pub fn parse(spec: &str, mode: CrashMode) -> Result<CrashPoint, String> {
        let (phase, hit) = match spec.split_once(':') {
            Some((p, h)) => {
                let hit: u32 = h
                    .parse()
                    .map_err(|_| format!("bad crash hit count `{h}`"))?;
                if hit == 0 {
                    return Err("crash hit counts are 1-based".into());
                }
                (p, hit)
            }
            None => (spec, 1),
        };
        if !PHASES.contains(&phase) {
            return Err(format!(
                "unknown crash phase `{phase}` (expected one of {})",
                PHASES.join(", ")
            ));
        }
        Ok(CrashPoint {
            phase: phase.to_string(),
            hit,
            mode,
        })
    }
}

/// Every phase name that checkpoints.
pub const PHASES: &[&str] = &["miter", "sim", "round", "sweep", "final_solve", "trim"];

/// Durable run-state handle threaded through one engine run.
///
/// Comes in three flavors: [`Durable::disabled`] (zero-cost no-op, what
/// plain [`crate::Session::check`] uses), [`Durable::begin`] (fresh
/// journal), and [`Durable::resume`] (validated replay against an
/// existing journal, then append).
#[derive(Debug, Default)]
pub struct Durable {
    writer: Option<JournalWriter>,
    /// Journaled records still awaiting validation, oldest first.
    replay: Vec<Record>,
    /// Index of the next replay record to validate.
    cursor: usize,
    crash: Option<CrashPoint>,
    /// Live (non-replayed) checkpoint occurrences per phase.
    hits: HashMap<String, u32>,
    /// Whether the loaded journal had a torn final line.
    truncated_tail: bool,
    /// Live counter of checkpoint records appended (disconnected until
    /// [`Durable::bind_metrics`]).
    m_checkpoints: obs::metrics::Counter,
    /// Live counter of journaled records validated on resume.
    m_replayed: obs::metrics::Counter,
}

/// Canonical header body for an input pair + option set.
fn header_body(options: &EngineConfig, a: &Aig, b: &Aig) -> Value {
    let hash_of = |g: &Aig| {
        let mut bytes = Vec::new();
        aig::aiger::write_ascii(g, &mut bytes).expect("write to Vec cannot fail");
        Value::Str(fnv1a64_hex(&bytes))
    };
    let limit = match options.pair_conflict_limit {
        Some(n) => Value::U64(n),
        None => Value::Null,
    };
    Value::Object(vec![
        ("type".into(), Value::str("header")),
        ("format".into(), Value::U64(JOURNAL_FORMAT)),
        ("a_hash".into(), hash_of(a)),
        ("b_hash".into(), hash_of(b)),
        ("threads".into(), Value::U64(options.threads as u64)),
        ("sim_words".into(), Value::U64(options.sim_words as u64)),
        ("seed".into(), Value::U64(options.seed)),
        (
            "pairs_per_worker".into(),
            match options.pairs_per_worker {
                Some(n) => Value::U64(n as u64),
                None => Value::Null,
            },
        ),
        (
            "engine".into(),
            Value::str(match options.engine {
                crate::EngineSelect::Static => "static",
                crate::EngineSelect::Adaptive => "adaptive",
            }),
        ),
        (
            "share_structure".into(),
            Value::Bool(options.share_structure),
        ),
        (
            "structural_merging".into(),
            Value::Bool(options.structural_merging),
        ),
        ("sweep".into(), Value::Bool(options.sweep)),
        ("proof".into(), Value::Bool(options.proof)),
        ("pair_conflict_limit".into(), limit),
    ])
}

impl Durable {
    /// A no-op handle: no journal, no crash injection.
    #[must_use]
    pub fn disabled() -> Durable {
        Durable::default()
    }

    /// Starts a fresh journal at `path`, writing and syncing the header
    /// record for `(options, a, b)`.
    ///
    /// # Errors
    ///
    /// [`CecError::Journal`] on I/O failure.
    pub fn begin(
        path: &Path,
        options: &EngineConfig,
        a: &Aig,
        b: &Aig,
    ) -> Result<Durable, CecError> {
        let mut writer = JournalWriter::create(path)
            .map_err(|e| CecError::Journal(format!("create {}: {e}", path.display())))?;
        writer
            .write(&header_body(options, a, b))
            .and_then(|_| writer.sync())
            .map_err(|e| CecError::Journal(format!("write header: {e}")))?;
        Ok(Durable {
            writer: Some(writer),
            ..Durable::default()
        })
    }

    /// Loads the journal at `path`, validates its header against
    /// `(options, a, b)`, and returns a handle that replays the
    /// remaining records as validation before appending new ones.
    ///
    /// # Errors
    ///
    /// [`CecError::Journal`] on I/O failure, mid-file corruption, or a
    /// header that does not match the inputs and options being resumed.
    pub fn resume(
        path: &Path,
        options: &EngineConfig,
        a: &Aig,
        b: &Aig,
    ) -> Result<Durable, CecError> {
        let contents = read_journal_file(path)
            .map_err(|e| CecError::Journal(format!("{}: {e}", path.display())))?;
        let Some(header) = contents.records.first() else {
            return Err(CecError::Journal(format!(
                "{}: journal has no header record",
                path.display()
            )));
        };
        let expected = header_body(options, a, b);
        if header.body != expected {
            return Err(CecError::Journal(format!(
                "{}: header does not match the inputs/options being resumed \
                 (journaled {}, expected {})",
                path.display(),
                header.body,
                expected
            )));
        }
        let writer = JournalWriter::append(path, contents.records.len() as u64)
            .map_err(|e| CecError::Journal(format!("append {}: {e}", path.display())))?;
        let mut replay = contents.records;
        replay.remove(0);
        Ok(Durable {
            writer: Some(writer),
            replay,
            truncated_tail: contents.truncated_tail,
            ..Durable::default()
        })
    }

    /// Arms a crash point. At most one can be armed.
    pub fn arm(&mut self, crash: CrashPoint) {
        self.crash = Some(crash);
    }

    /// Binds the journal's live counters (`cec.journal.checkpoints`,
    /// `cec.journal.replayed`) to `metrics`. A disabled registry (or a
    /// disabled handle) keeps the counters free. The engine calls this
    /// at the start of every durable run.
    pub fn bind_metrics(&mut self, metrics: &obs::metrics::Metrics) {
        if self.writer.is_none() {
            return;
        }
        self.m_checkpoints = metrics.counter("cec.journal.checkpoints");
        self.m_replayed = metrics.counter("cec.journal.replayed");
    }

    /// Whether this handle journals at all.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.writer.is_some()
    }

    /// How many journaled records are still pending replay validation.
    #[must_use]
    pub fn pending_replay(&self) -> usize {
        self.replay.len() - self.cursor
    }

    /// Whether the loaded journal had a torn final line (dropped).
    #[must_use]
    pub fn truncated_tail(&self) -> bool {
        self.truncated_tail
    }

    /// Records one engine-phase checkpoint.
    ///
    /// While journaled records remain, the checkpoint is *validated*
    /// against the next one instead of written; once the prefix is
    /// exhausted, it is appended and synced, and any armed crash point
    /// for this phase may then fire.
    ///
    /// # Errors
    ///
    /// [`CecError::ReplayDivergence`] on a replay mismatch,
    /// [`CecError::Journal`] on I/O failure, and
    /// [`CecError::CrashInjected`] when an armed [`CrashMode::Error`]
    /// crash fires.
    pub fn checkpoint(&mut self, phase: &str, fields: &[(&str, Value)]) -> Result<(), CecError> {
        if self.writer.is_none() {
            return Ok(());
        }
        let mut entries = vec![
            ("type".to_string(), Value::str("checkpoint")),
            ("phase".to_string(), Value::str(phase)),
        ];
        for (k, v) in fields {
            entries.push(((*k).to_string(), v.clone()));
        }
        self.record(&Value::Object(entries))?;
        // Crash points fire only on live checkpoints: replayed ones were
        // already survived by the crashed run.
        let hit = self.hits.entry(phase.to_string()).or_insert(0);
        *hit += 1;
        if let Some(crash) = &self.crash {
            if crash.phase == phase && crash.hit == *hit {
                match crash.mode {
                    CrashMode::Error => {
                        return Err(CecError::CrashInjected {
                            phase: phase.to_string(),
                            hit: crash.hit,
                        })
                    }
                    CrashMode::Abort => std::process::abort(),
                }
            }
        }
        Ok(())
    }

    /// Records the final verdict: equivalence flag plus the FNV-1a
    /// fingerprint of the TraceCheck-serialized proof (UNSAT) or the
    /// distinguishing input pattern (SAT).
    ///
    /// # Errors
    ///
    /// Same as [`Durable::checkpoint`], minus crash injection.
    pub fn verdict(
        &mut self,
        equivalent: bool,
        proof_hash: Option<&str>,
        pattern: Option<&[bool]>,
    ) -> Result<(), CecError> {
        if self.writer.is_none() {
            return Ok(());
        }
        let mut entries = vec![
            ("type".to_string(), Value::str("verdict")),
            ("equivalent".to_string(), Value::Bool(equivalent)),
        ];
        if let Some(h) = proof_hash {
            entries.push(("proof_hash".to_string(), Value::str(h)));
        }
        if let Some(p) = pattern {
            entries.push((
                "pattern".to_string(),
                Value::Array(p.iter().map(|&b| Value::Bool(b)).collect()),
            ));
        }
        self.record(&Value::Object(entries))
    }

    /// Validates `body` against the replay prefix or appends it.
    fn record(&mut self, body: &Value) -> Result<(), CecError> {
        if self.cursor < self.replay.len() {
            let expected = &self.replay[self.cursor];
            if expected.body != *body {
                return Err(CecError::ReplayDivergence {
                    seq: expected.seq,
                    detail: format!("journaled {}, re-executed {}", expected.body, body),
                });
            }
            self.cursor += 1;
            self.m_replayed.inc();
            return Ok(());
        }
        let writer = self.writer.as_mut().expect("checked by callers");
        writer
            .write(body)
            .and_then(|_| writer.sync())
            .map_err(|e| CecError::Journal(format!("append record: {e}")))?;
        self.m_checkpoints.inc();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crash_spec_parsing() {
        let c = CrashPoint::parse("round:3", CrashMode::Error).unwrap();
        assert_eq!(c.phase, "round");
        assert_eq!(c.hit, 3);
        let c = CrashPoint::parse("sweep", CrashMode::Abort).unwrap();
        assert_eq!(c.hit, 1);
        assert!(CrashPoint::parse("warp", CrashMode::Error).is_err());
        assert!(CrashPoint::parse("sweep:0", CrashMode::Error).is_err());
        assert!(CrashPoint::parse("sweep:x", CrashMode::Error).is_err());
    }

    #[test]
    fn disabled_durable_is_a_no_op() {
        let mut d = Durable::disabled();
        assert!(!d.is_enabled());
        d.checkpoint("sweep", &[("lemmas", Value::U64(4))]).unwrap();
        d.verdict(true, Some("abc"), None).unwrap();
    }

    #[test]
    fn disabled_durable_never_fires_crashes() {
        let mut d = Durable::disabled();
        d.arm(CrashPoint {
            phase: "sweep".into(),
            hit: 1,
            mode: CrashMode::Error,
        });
        // No journal → no live checkpoint → no crash.
        d.checkpoint("sweep", &[]).unwrap();
    }
}
