//! Crash-resume determinism across the generator zoo.
//!
//! The durability contract: a run aborted at *any* phase checkpoint and
//! resumed from its journal must end in the same verdict, the same
//! byte-for-byte TraceCheck proof, and the same byte-for-byte journal
//! as a run that was never interrupted — sequentially and with a
//! 4-thread stitched sweep.

use aig::gen;
use aig::Aig;
use cec::journal::PHASES;
use cec::{
    CecError, CecOutcome, CrashMode, CrashPoint, Durable, EngineConfig, Session, SharedContext,
};
use std::path::PathBuf;

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("cec-durability-{}-{name}", std::process::id()));
    p
}

fn options(threads: usize) -> EngineConfig {
    EngineConfig {
        threads,
        ..EngineConfig::default()
    }
}

/// One journaled check of `(a, b)` under `opts`.
fn run(opts: &EngineConfig, a: &Aig, b: &Aig, d: &mut Durable) -> Result<CecOutcome, CecError> {
    Session::new(opts.clone(), &SharedContext::disabled()).check_durable(a, b, d)
}

/// TraceCheck serialization of an equivalent outcome's proof.
fn tc_bytes(outcome: &CecOutcome) -> Vec<u8> {
    let cert = outcome.certificate().expect("equivalent");
    let mut bytes = Vec::new();
    proof::export::write_tracecheck(cert.proof.as_ref().expect("proof recorded"), &mut bytes)
        .expect("write to Vec");
    bytes
}

/// For one circuit pair and thread count: run uninterrupted, then crash
/// at every phase checkpoint and resume, demanding byte-identical proof
/// and journal each time.
fn crash_matrix(name: &str, a: &Aig, b: &Aig, threads: usize) {
    let opts = options(threads);

    let base_path = tmp(&format!("{name}-t{threads}-base.journal"));
    let mut base = Durable::begin(&base_path, &opts, a, b).expect("begin");
    let outcome = run(&opts, a, b, &mut base).expect("baseline run");
    let base_proof = tc_bytes(&outcome);
    let base_journal = std::fs::read(&base_path).expect("baseline journal");

    for phase in PHASES {
        // Sequential sweeps have no per-round checkpoint.
        if *phase == "round" && threads == 1 {
            continue;
        }
        let path = tmp(&format!("{name}-t{threads}-{phase}.journal"));
        let mut d = Durable::begin(&path, &opts, a, b).expect("begin");
        d.arm(CrashPoint {
            phase: (*phase).to_string(),
            hit: 1,
            mode: CrashMode::Error,
        });
        match run(&opts, a, b, &mut d) {
            Err(CecError::CrashInjected { phase: p, hit: 1 }) => assert_eq!(&p, phase),
            other => panic!("{name} t{threads} {phase}: expected injected crash, got {other:?}"),
        }
        drop(d);

        let mut resumed = Durable::resume(&path, &opts, a, b).expect("resume");
        assert!(
            resumed.pending_replay() > 0,
            "{phase}: crash left no checkpoints"
        );
        let outcome = run(&opts, a, b, &mut resumed)
            .unwrap_or_else(|e| panic!("{name} t{threads} {phase}: resume failed: {e}"));
        assert_eq!(
            tc_bytes(&outcome),
            base_proof,
            "{name} t{threads} {phase}: resumed proof differs"
        );
        assert_eq!(
            std::fs::read(&path).expect("resumed journal"),
            base_journal,
            "{name} t{threads} {phase}: resumed journal differs"
        );
        let _ = std::fs::remove_file(&path);
    }
    let _ = std::fs::remove_file(&base_path);
}

#[test]
fn crash_resume_is_byte_identical_across_zoo() {
    let pairs: Vec<(&str, Aig, Aig)> = vec![
        (
            "adder",
            gen::ripple_carry_adder(6),
            gen::kogge_stone_adder(6),
        ),
        ("parity", gen::parity_chain(16), gen::parity_tree(16)),
        ("popcount", gen::popcount_serial(8), gen::popcount_csa(8)),
    ];
    for (name, a, b) in &pairs {
        for threads in [1, 4] {
            crash_matrix(name, a, b, threads);
        }
    }
}

#[test]
fn resume_rejects_mismatched_options() {
    let a = gen::ripple_carry_adder(4);
    let b = gen::carry_lookahead_adder(4);
    let opts = options(1);
    let path = tmp("mismatch.journal");
    let mut d = Durable::begin(&path, &opts, &a, &b).expect("begin");
    run(&opts, &a, &b, &mut d).expect("run");
    drop(d);

    // Different seed → different header → refuse to resume.
    let other = EngineConfig {
        seed: 7,
        ..opts.clone()
    };
    match Durable::resume(&path, &other, &a, &b) {
        Err(CecError::Journal(msg)) => assert!(msg.contains("header"), "{msg}"),
        other => panic!("expected header rejection, got {other:?}"),
    }
    // Different inputs → same refusal.
    let c = gen::carry_select_adder(4, 2);
    match Durable::resume(&path, &opts, &a, &c) {
        Err(CecError::Journal(msg)) => assert!(msg.contains("header"), "{msg}"),
        other => panic!("expected header rejection, got {other:?}"),
    }
    // A journal written under the removed adaptive scheduler: the same
    // header but `"engine": "adaptive"`, written through the journal
    // writer so its record checksum is valid and only the header check
    // can refuse it.
    let journaled = obs::journal::read_journal_file(&path).expect("journal");
    let obs::json::Value::Object(mut header) = journaled.records[0].body.clone() else {
        panic!("header record is an object");
    };
    let engine = header
        .iter_mut()
        .find(|(k, _)| k == "engine")
        .expect("header names the engine");
    assert_eq!(engine.1.as_str(), Some("static"));
    engine.1 = obs::json::Value::str("adaptive");
    let adaptive = tmp("adaptive.journal");
    let mut w = obs::journal::JournalWriter::create(&adaptive).expect("create");
    w.write(&obs::json::Value::Object(header)).expect("write");
    drop(w);
    match Durable::resume(&adaptive, &opts, &a, &b) {
        Err(CecError::Journal(msg)) => assert!(msg.contains("header"), "{msg}"),
        other => panic!("expected header rejection, got {other:?}"),
    }
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&adaptive);
}

#[test]
fn resume_detects_checkpoint_divergence() {
    let a = gen::ripple_carry_adder(4);
    let b = gen::carry_lookahead_adder(4);
    let opts = options(1);
    let path = tmp("diverge.journal");
    // A journal whose header is honest but whose first checkpoint lies.
    let d = Durable::begin(&path, &opts, &a, &b).expect("begin");
    drop(d);
    let mut w = obs::journal::JournalWriter::append(&path, 1).expect("append");
    w.write(&obs::json::Value::Object(vec![
        ("type".into(), obs::json::Value::str("checkpoint")),
        ("phase".into(), obs::json::Value::str("miter")),
        ("nodes".into(), obs::json::Value::U64(0)),
        ("output".into(), obs::json::Value::U64(0)),
    ]))
    .expect("write");
    drop(w);

    let mut resumed = Durable::resume(&path, &opts, &a, &b).expect("resume");
    match run(&opts, &a, &b, &mut resumed) {
        Err(CecError::ReplayDivergence { seq: 1, .. }) => {}
        other => panic!("expected divergence at seq 1, got {other:?}"),
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn inequivalent_runs_journal_the_counterexample() {
    let a = gen::ripple_carry_adder(4);
    let b = gen::mutate(&a, 3).expect("adder has gates");
    assert!(
        aig::sim::exhaustive_diff(&a, &b, 9).is_some(),
        "mutation must change the function"
    );
    let opts = options(1);
    let path = tmp("sat.journal");
    let mut d = Durable::begin(&path, &opts, &a, &b).expect("begin");
    let outcome = run(&opts, &a, &b, &mut d).expect("run");
    assert!(outcome.counterexample().is_some());
    drop(d);

    let contents = obs::journal::read_journal_file(&path).expect("journal");
    let last = contents.records.last().expect("records");
    assert_eq!(
        last.body.get("type").and_then(obs::json::Value::as_str),
        Some("verdict")
    );
    assert!(
        last.body.get("pattern").is_some(),
        "SAT verdict carries the pattern"
    );
    let _ = std::fs::remove_file(&path);
}

/// FNV-1a-64 of the header line and of the whole journal of an
/// uninterrupted adder-6 run, per thread count. Pinned so that a change
/// to the config plumbing cannot silently alter the journal format;
/// regenerate only when the format is meant to change.
const GOLDEN_JOURNALS: &[(usize, &str, &str)] = &[
    (1, "2856bb056b9f9b12", "721c75f0e854fd08"),
    (2, "c7df11e29b7e1c49", "0d36aec420d094d4"),
];

#[test]
fn journal_bytes_match_the_golden_hashes() {
    let a = gen::ripple_carry_adder(6);
    let b = gen::kogge_stone_adder(6);
    let mut actual = Vec::new();
    for threads in [1, 2] {
        let opts = options(threads);
        let path = tmp(&format!("golden-t{threads}.journal"));
        let mut d = Durable::begin(&path, &opts, &a, &b).expect("begin");
        run(&opts, &a, &b, &mut d).expect("run");
        drop(d);
        let bytes = std::fs::read(&path).expect("journal");
        let header = bytes.split(|&c| c == b'\n').next().expect("header line");
        actual.push((
            threads,
            obs::hash::fnv1a64_hex(header),
            obs::hash::fnv1a64_hex(&bytes),
        ));
        let _ = std::fs::remove_file(&path);
    }
    let golden: Vec<(usize, String, String)> = GOLDEN_JOURNALS
        .iter()
        .map(|&(t, h, j)| (t, h.to_string(), j.to_string()))
        .collect();
    assert_eq!(actual, golden, "journal bytes moved");
}
