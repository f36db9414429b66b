//! End-to-end tests of the `rchaos` audit harness binary: the gen →
//! prove → check loop, fault injection with checker rejection, and the
//! randomized workload driver.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("rchaos-test-{}-{name}", std::process::id()));
    let _ = fs::remove_dir_all(&p);
    p
}

fn rchaos(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_rchaos"))
        .args(args)
        .output()
        .expect("binary launches")
}

fn gen_prove(dir: &Path, pair: &str, width: &str) {
    let dir_flag = format!("--dir={}", dir.display());
    let out = rchaos(&[
        "gen",
        &dir_flag,
        &format!("--pair={pair}"),
        &format!("--width={width}"),
    ]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let out = rchaos(&["prove", &dir_flag]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("EQUIVALENT"));
}

#[test]
fn gen_prove_check_loop_is_clean() {
    let dir = tmp("loop");
    gen_prove(&dir, "adder", "4");
    let dir_flag = format!("--dir={}", dir.display());
    let out = rchaos(&["check", &dir_flag]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("0 errors"));
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn corrupted_artifacts_are_rejected_with_stable_codes() {
    let dir = tmp("corrupt");
    gen_prove(&dir, "parity", "6");
    let dir_flag = format!("--dir={}", dir.display());
    for (artifact, mode) in [
        ("proof.tc", "flip"),
        ("miter.cnf", "multiflip"),
        ("cert.cert", "truncate"),
        ("a.aag", "flip"),
    ] {
        let original = fs::read(dir.join(artifact)).unwrap();
        let out = rchaos(&[
            "corrupt",
            &dir_flag,
            &format!("--artifact={artifact}"),
            &format!("--mode={mode}"),
            "--seed=5",
        ]);
        assert_eq!(out.status.code(), Some(0), "{out:?}");
        let out = rchaos(&["check", &dir_flag, "--json"]);
        assert_eq!(out.status.code(), Some(1), "{artifact}/{mode}: {out:?}");
        let json = String::from_utf8_lossy(&out.stdout);
        assert!(json.contains("XB010"), "{artifact}/{mode}: {json}");
        fs::write(dir.join(artifact), original).unwrap();
    }
    // Restored bundle is clean again.
    let out = rchaos(&["check", &dir_flag]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn workload_run_is_clean_and_reports_counts() {
    let dir = tmp("run");
    let dir_flag = format!("--dir={}", dir.display());
    let out = rchaos(&["run", &dir_flag, "--ops=2", "--seed=3"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("2 ops"), "{text}");
    assert!(text.contains("0 failures"), "{text}");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn usage_errors_exit_two() {
    for args in [
        &["prove"][..],
        &["warp", "--dir=/tmp/x"][..],
        &[
            "corrupt",
            "--dir=/tmp/x",
            "--artifact=evil.bin",
            "--mode=flip",
        ][..],
        &["prove", "--dir=/nonexistent-rchaos"][..],
        &["prove", "--dir=/tmp/x", "--resume"][..],
    ] {
        let out = rchaos(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
    }
}

#[test]
fn inequivalent_bundle_carries_a_checked_counterexample() {
    let dir = tmp("ineq");
    let dir_flag = format!("--dir={}", dir.display());
    let out = rchaos(&["gen", &dir_flag, "--pair=adder", "--width=4"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    // Swap b's first two outputs (the lines after the header and the
    // input lines of `aag M I L O A`).
    let text = fs::read_to_string(dir.join("b.aag")).unwrap();
    let mut lines: Vec<&str> = text.lines().collect();
    let inputs: usize = lines[0].split(' ').nth(2).unwrap().parse().unwrap();
    lines.swap(1 + inputs, 2 + inputs);
    fs::write(dir.join("b.aag"), lines.join("\n") + "\n").unwrap();

    let out = rchaos(&["prove", &dir_flag]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("NOT EQUIVALENT"));
    assert!(dir.join("cex").is_file() && !dir.join("proof.tc").exists());
    let out = rchaos(&["check", &dir_flag]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");

    let out = rchaos(&["corrupt", &dir_flag, "--artifact=cex", "--mode=flip"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let out = rchaos(&["check", &dir_flag, "--json"]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("XB010"));
    fs::remove_dir_all(&dir).unwrap();
}
