//! Regenerates every table and figure of `EXPERIMENTS.md`.
//!
//! Usage:
//!
//! ```text
//! cargo run -p bench --bin tables --release            # everything
//! cargo run -p bench --bin tables --release -- t2 f1   # selected
//! ```

use bench::experiments as exp;
use bench::{render_table, suite};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let want = |k: &str| args.is_empty() || args.iter().any(|a| a.eq_ignore_ascii_case(k));

    if want("t1") {
        t1();
    }
    if want("t2") {
        t2();
    }
    if want("t3") {
        t3();
    }
    if want("t4") {
        t4();
    }
    if want("t5") {
        t5();
    }
    if want("t6") {
        t6();
    }
    if want("t7") {
        t7();
    }
    if want("t8") {
        t8();
    }
    if want("f1") {
        f1();
    }
    if want("f2") {
        f2();
    }
    if want("f3") {
        f3();
    }
    if want("stats-json") {
        stats_json();
    }
}

/// Machine-readable stats record per suite pair: one JSON Lines row
/// `{"pair": ..., "stats": <EngineStats::to_json()>}` on stdout, the
/// same tree as `rcec --stats-json`. Pipe to a file to archive a run.
fn stats_json() {
    eprintln!("== stats-json: per-pair machine-readable engine stats =========");
    for p in suite() {
        let outcome = exp::sweep_prove(&p);
        let stats = match &outcome {
            cec::CecOutcome::Equivalent(cert) => &cert.stats,
            cec::CecOutcome::Inequivalent { stats, .. } => stats,
        };
        let row = obs::json::Value::Object(vec![
            ("pair".to_string(), obs::json::Value::Str(p.name.clone())),
            ("stats".to_string(), stats.to_json()),
        ]);
        println!("{row}");
    }
}

fn t1() {
    println!("== T1: benchmark characteristics ==============================");
    let rows: Vec<Vec<String>> = exp::run_t1(&suite())
        .into_iter()
        .map(|r| {
            vec![
                r.name,
                r.family.to_string(),
                r.inputs.to_string(),
                r.outputs.to_string(),
                r.ands.0.to_string(),
                r.ands.1.to_string(),
                r.depth.0.to_string(),
                r.depth.1.to_string(),
                r.miter_nodes.to_string(),
                r.miter_nodes_unshared.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "pair",
                "family",
                "pi",
                "po",
                "and(A)",
                "and(B)",
                "dep(A)",
                "dep(B)",
                "miter",
                "miter-nosh"
            ],
            &rows
        )
    );
}

fn t2() {
    println!("== T2: sweeping vs monolithic (proof-producing) ===============");
    let rows: Vec<Vec<String>> = exp::run_t2(&suite())
        .into_iter()
        .map(|r| {
            let ratio = r.proof_ratio();
            vec![
                r.name,
                format!("{:.1}", r.sweep.solve_ms),
                r.sweep.resolutions.to_string(),
                r.sweep.trimmed_resolutions.to_string(),
                format!("{:.1}", r.sweep.check_ms),
                format!("{:.1}", r.mono.solve_ms),
                r.mono.resolutions.to_string(),
                r.mono.trimmed_resolutions.to_string(),
                format!("{:.1}", r.mono.check_ms),
                format!("{ratio:.1}x"),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "pair", "sw-ms", "sw-res", "sw-trim", "sw-chk", "mn-ms", "mn-res", "mn-trim",
                "mn-chk", "mono/sw"
            ],
            &rows
        )
    );
}

fn t3() {
    println!("== T3: backward proof trimming ================================");
    let rows: Vec<Vec<String>> = exp::run_t3(&suite())
        .into_iter()
        .map(|r| {
            vec![
                r.name.clone(),
                r.recorded.to_string(),
                r.trimmed.to_string(),
                r.compacted.to_string(),
                format!("{:.1}%", 100.0 * r.removed_fraction()),
                format!("{}/{}", r.core_originals, r.originals),
                format!("{:.2}", r.trim_ms),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "pair",
                "recorded",
                "trimmed",
                "compact",
                "removed",
                "core-orig",
                "trim-ms"
            ],
            &rows
        )
    );
}

fn t4() {
    println!("== T4: ablation (hashing / structural merging / sweeping) =====");
    let pairs = suite();
    let interesting: Vec<_> = pairs
        .into_iter()
        .filter(|p| {
            matches!(
                p.name.as_str(),
                "add-rca/ks-16" | "mul-arr/csa-5" | "parity-ch/tr-32" | "rewrite-rand-400"
            )
        })
        .collect();
    let rows: Vec<Vec<String>> = exp::run_t4(&interesting)
        .into_iter()
        .map(|r| {
            vec![
                r.name.clone(),
                r.config.label().to_string(),
                r.sat_calls.to_string(),
                r.sat_cex.to_string(),
                r.structural_merges.to_string(),
                r.resolutions.to_string(),
                format!("{:.1}", r.solve_ms),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "pair",
                "config",
                "sat",
                "cex",
                "struct",
                "resolutions",
                "ms"
            ],
            &rows
        )
    );
}

fn t5() {
    println!("== T5: Craig interpolants from miter refutations ==============");
    let pairs = suite();
    let small: Vec<_> = pairs
        .into_iter()
        .filter(|p| p.family == "adder" || p.family == "parity" || p.family == "comparator")
        .collect();
    let rows: Vec<Vec<String>> = exp::run_t5(&small)
        .into_iter()
        .map(|r| {
            vec![
                r.name.clone(),
                r.raw_resolutions.to_string(),
                r.raw_itp_gates.to_string(),
                r.trimmed_resolutions.to_string(),
                r.trimmed_itp_gates.to_string(),
                r.sweep_itp_gates.to_string(),
                r.itp_inputs.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "pair",
                "raw-res",
                "raw-itp",
                "trim-res",
                "trim-itp",
                "sweep-itp",
                "itp-vars"
            ],
            &rows
        )
    );
}

fn t6() {
    println!("== T6: trimmed proof composition by reasoning mechanism =======");
    let pairs = suite();
    let chosen: Vec<_> = pairs
        .into_iter()
        .filter(|p| {
            matches!(
                p.name.as_str(),
                "add-rca/ks-16"
                    | "add-rca/ks-32"
                    | "mul-arr/csa-5"
                    | "alu-rca/ks-8"
                    | "rewrite-rand-400"
            )
        })
        .collect();
    let mut rows: Vec<Vec<String>> = Vec::new();
    for r in exp::run_t6(&chosen) {
        for (role, steps, resolutions) in &r.breakdown {
            if *steps == 0 {
                continue;
            }
            rows.push(vec![
                r.name.clone(),
                role.label().to_string(),
                steps.to_string(),
                format!("{:.1}%", 100.0 * *steps as f64 / r.total as f64),
                resolutions.to_string(),
            ]);
        }
    }
    println!(
        "{}",
        render_table(
            &["pair", "mechanism", "steps", "share", "resolutions"],
            &rows
        )
    );
}

fn t7() {
    println!("== T7: FRAIG reduction (sweeping as an optimizer) =============");
    let pairs = suite();
    let chosen: Vec<_> = pairs
        .into_iter()
        .filter(|p| {
            matches!(
                p.name.as_str(),
                "add-rca/ks-16"
                    | "add-rca/bk-32"
                    | "mul-arr/csa-5"
                    | "alu-rca/ks-8"
                    | "parity-ch/tr-32"
                    | "pop-ser/csa-24"
            )
        })
        .collect();
    let rows: Vec<Vec<String>> = exp::run_t7(&chosen)
        .into_iter()
        .map(|r| {
            vec![
                r.name.clone(),
                r.before.to_string(),
                r.after.to_string(),
                format!("{:.1}%", 100.0 * r.removed_fraction()),
                format!("{:.1}", r.reduce_ms),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &["union of pair", "gates", "reduced", "removed", "ms"],
            &rows
        )
    );
}

fn t8() {
    println!("== T8: BDD canonical-form baseline vs proof-producing sweep ===");
    let rows: Vec<Vec<String>> = exp::run_t8(&suite(), 1 << 21)
        .into_iter()
        .map(|r| {
            vec![
                r.name.clone(),
                r.family.to_string(),
                match r.bdd_nodes {
                    Some(n) => n.to_string(),
                    None => "OVERFLOW".into(),
                },
                format!("{:.1}", r.bdd_ms),
                format!("{:.1}", r.sweep_ms),
                if r.bdd_decided { "yes" } else { "NO" }.into(),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "pair",
                "family",
                "bdd-nodes",
                "bdd-ms",
                "sweep-ms",
                "bdd-verdict"
            ],
            &rows
        )
    );
}

fn f1() {
    println!("== F1: scaling with adder width (rca vs kogge-stone) ==========");
    let widths = [4usize, 8, 16, 24, 32, 48, 64];
    let rows: Vec<Vec<String>> = exp::run_f1(&widths)
        .into_iter()
        .map(|p| {
            vec![
                p.width.to_string(),
                format!("{:.1}", p.sweep.0),
                p.sweep.1.to_string(),
                format!("{:.1}", p.mono.0),
                p.mono.1.to_string(),
                format!("{:.1}x", p.mono.1.max(1) as f64 / p.sweep.1.max(1) as f64),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &["width", "sw-ms", "sw-res", "mn-ms", "mn-res", "mono/sw"],
            &rows
        )
    );
}

fn f3() {
    println!("== F3: the BDD multiplier cliff (array vs carry-save) =========");
    let widths = [4usize, 5, 6, 7, 8, 10, 12];
    let rows: Vec<Vec<String>> = exp::run_f3(&widths, 1 << 21, 8)
        .into_iter()
        .map(|p| {
            vec![
                p.width.to_string(),
                match p.bdd_nodes {
                    Some(n) => n.to_string(),
                    None => "OVERFLOW".into(),
                },
                format!("{:.1}", p.bdd_ms),
                match p.sweep_ms {
                    Some(t) => format!("{t:.1}"),
                    None => "(skipped)".into(),
                },
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(&["width", "bdd-nodes", "bdd-ms", "sweep-ms"], &rows)
    );
    println!("note: sweep points above width 8 are skipped to keep the harness fast;");
    println!("      the SAT engine still terminates there, only slowly (see stress tests).\n");
}

fn f2() {
    println!("== F2: candidate survival vs simulation effort ================");
    let pairs = suite();
    let chosen: Vec<_> = pairs
        .into_iter()
        .filter(|p| {
            matches!(
                p.name.as_str(),
                "add-rca/ks-16" | "mul-arr/csa-5" | "alu-rca/ks-8"
            )
        })
        .collect();
    let words = [1usize, 2, 4, 8, 16, 32, 64];
    let rows: Vec<Vec<String>> = exp::run_f2(&chosen, &words)
        .into_iter()
        .map(|p| {
            vec![
                p.name.clone(),
                p.words.to_string(),
                p.classes.to_string(),
                p.candidates.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(&["pair", "words", "classes", "candidates"], &rows)
    );
}
