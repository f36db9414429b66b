//! Bundle emission and the paired adversarial checker.
//!
//! [`prove_and_emit`] runs one engine check and persists the evidence
//! an independent auditor needs: the AIGER inputs, the miter DIMACS,
//! and either the TraceCheck and DRAT proofs plus the certificate
//! (equivalent) or the distinguishing input pattern `cex`
//! (inequivalent). A [`Manifest`] (`manifest.json`) commits them: it
//! records the verdict, the miter's structural-sharing flag, and an
//! FNV-1a fingerprint per file, and is the bundle's only audit record.
//! It is written last and atomically, so a crash mid-emission leaves a
//! directory without a manifest, which the checker rejects and a plain
//! rerun of [`prove_and_emit`] completes.
//!
//! [`check_bundle`] is the paired checker: it re-reads the directory,
//! verifies every fingerprint, re-parses every artifact, enforces the
//! verdict from the artifacts themselves (a proof for `equivalent`, a
//! distinguishing pattern for `inequivalent`), and cross-links proof ↔
//! CNF ↔ certificate ↔ miter, mapping each defect to a stable lint
//! code. The checker's contract under fault injection is strict:
//! corrupted bytes are *rejected with a diagnostic*, never accepted,
//! never a panic.

use aig::Aig;
use cec::{miter_cnf, CecError, CecOutcome, EngineConfig, Miter, Session, SharedContext};
use lint::{
    lint_bundle, lint_drat, read_tracecheck, Artifact, Bundle, CertificateInfo, LintOptions,
    Report, XB010, XB011,
};
use obs::hash::fnv1a64_hex;
use obs::json::{self, Value};
use std::collections::HashMap;
use std::fmt;
use std::fs;
use std::io::{self, Cursor, Write};
use std::path::{Path, PathBuf};

/// Manifest format version written in `manifest.json`.
pub const MANIFEST_FORMAT: u64 = 2;

/// Every artifact file name a bundle may contain (the manifest itself
/// is not an artifact — it is the fingerprint ledger *over* them).
pub const ARTIFACTS: &[&str] = &[
    "a.aag",
    "b.aag",
    "miter.cnf",
    "proof.tc",
    "proof.drat",
    "cert.cert",
    "cex",
];

/// The artifacts only an equivalent bundle carries.
const PROOF_ARTIFACTS: &[&str] = &["proof.tc", "proof.drat", "cert.cert"];

/// File name of the manifest.
pub const MANIFEST: &str = "manifest.json";

/// The fixed file layout of one bundle directory.
#[derive(Clone, Debug)]
pub struct BundlePaths {
    /// The bundle directory.
    pub dir: PathBuf,
}

impl BundlePaths {
    /// Wraps a bundle directory.
    pub fn new(dir: impl Into<PathBuf>) -> BundlePaths {
        BundlePaths { dir: dir.into() }
    }

    /// Path of a named file inside the bundle.
    #[must_use]
    pub fn file(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }

    /// Circuit A, ASCII AIGER.
    #[must_use]
    pub fn a(&self) -> PathBuf {
        self.file("a.aag")
    }

    /// Circuit B, ASCII AIGER.
    #[must_use]
    pub fn b(&self) -> PathBuf {
        self.file("b.aag")
    }

    /// The miter's Tseitin CNF, DIMACS.
    #[must_use]
    pub fn cnf(&self) -> PathBuf {
        self.file("miter.cnf")
    }

    /// The recorded refutation, TraceCheck.
    #[must_use]
    pub fn proof(&self) -> PathBuf {
        self.file("proof.tc")
    }

    /// The recorded refutation, DRAT.
    #[must_use]
    pub fn drat(&self) -> PathBuf {
        self.file("proof.drat")
    }

    /// Certificate metadata.
    #[must_use]
    pub fn certificate(&self) -> PathBuf {
        self.file("cert.cert")
    }

    /// The distinguishing input pattern of an inequivalent bundle.
    #[must_use]
    pub fn cex(&self) -> PathBuf {
        self.file("cex")
    }

    /// The fingerprint manifest.
    #[must_use]
    pub fn manifest(&self) -> PathBuf {
        self.file(MANIFEST)
    }
}

/// The parsed `manifest.json`: the bundle's audit record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Manifest {
    /// The claimed verdict: `true` = equivalent.
    pub equivalent: bool,
    /// Whether the miter shares structure across the two circuits. The
    /// flag decides which Tseitin clauses `miter.cnf` holds, so the
    /// checker rebuilds the miter with it.
    pub share_structure: bool,
    /// `(artifact, FNV-1a hex fingerprint)` per listed file, in order.
    pub entries: Vec<(&'static str, String)>,
}

impl Manifest {
    /// The canonical serialization: one compact JSON object and a
    /// newline.
    #[must_use]
    pub fn render(&self) -> String {
        let entries = self
            .entries
            .iter()
            .map(|(file, fnv)| {
                Value::Object(vec![
                    ("file".into(), Value::str(*file)),
                    ("fnv".into(), Value::str(fnv)),
                ])
            })
            .collect();
        let doc = Value::Object(vec![
            ("format".into(), Value::U64(MANIFEST_FORMAT)),
            (
                "verdict".into(),
                Value::str(if self.equivalent {
                    "equivalent"
                } else {
                    "inequivalent"
                }),
            ),
            ("share_structure".into(), Value::Bool(self.share_structure)),
            ("entries".into(), Value::Array(entries)),
        ]);
        format!("{doc}\n")
    }

    /// Parses a manifest. Only the canonical bytes of a format-2
    /// manifest are accepted, so any damage that still parses as JSON
    /// is rejected too.
    ///
    /// # Errors
    ///
    /// A description of the first defect found.
    pub fn parse(text: &str) -> Result<Manifest, String> {
        let doc = json::parse(text).map_err(|e| format!("manifest.json malformed: {e}"))?;
        if doc.get("format").and_then(Value::as_u64) != Some(MANIFEST_FORMAT) {
            return Err(format!("manifest format is not {MANIFEST_FORMAT}"));
        }
        let equivalent = match doc.get("verdict").and_then(Value::as_str) {
            Some("equivalent") => true,
            Some("inequivalent") => false,
            other => {
                return Err(format!(
                    "manifest verdict is {other:?}, not equivalent/inequivalent"
                ))
            }
        };
        let share_structure = doc
            .get("share_structure")
            .and_then(Value::as_bool)
            .ok_or("manifest has no boolean share_structure")?;
        let items = doc
            .get("entries")
            .and_then(Value::as_array)
            .ok_or("manifest has no entries array")?;
        let mut entries: Vec<(&'static str, String)> = Vec::with_capacity(items.len());
        for item in items {
            let file = item.get("file").and_then(Value::as_str);
            let fnv = item.get("fnv").and_then(Value::as_str);
            let (Some(file), Some(fnv)) = (file, fnv) else {
                return Err("manifest entry lacks file/fnv fields".into());
            };
            // The layout is closed: resolving to a static artifact name
            // also guards against entries naming files outside the
            // bundle.
            let name = ARTIFACTS
                .iter()
                .copied()
                .find(|n| *n == file)
                .ok_or_else(|| format!("manifest names unknown artifact `{file}`"))?;
            if entries.iter().any(|(n, _)| *n == name) {
                return Err(format!("manifest lists `{name}` twice"));
            }
            entries.push((name, fnv.to_string()));
        }
        let manifest = Manifest {
            equivalent,
            share_structure,
            entries,
        };
        if manifest.render() != text {
            return Err("manifest.json is not in canonical form".into());
        }
        Ok(manifest)
    }

    /// Whether `name` is listed.
    #[must_use]
    pub fn lists(&self, name: &str) -> bool {
        self.entries.iter().any(|(n, _)| *n == name)
    }
}

/// Serializes a counterexample as the `cex` artifact: one `0`/`1` per
/// primary input, in input order, then a newline.
#[must_use]
pub fn write_cex(pattern: &[bool]) -> Vec<u8> {
    let mut bytes: Vec<u8> = pattern
        .iter()
        .map(|&b| if b { b'1' } else { b'0' })
        .collect();
    bytes.push(b'\n');
    bytes
}

/// Parses a `cex` artifact written by [`write_cex`].
///
/// # Errors
///
/// A description of the first byte that breaks the format.
pub fn parse_cex(bytes: &[u8]) -> Result<Vec<bool>, String> {
    let bits = bytes
        .strip_suffix(b"\n")
        .ok_or("counterexample does not end in a newline")?;
    bits.iter()
        .enumerate()
        .map(|(i, b)| match b {
            b'0' => Ok(false),
            b'1' => Ok(true),
            _ => Err(format!("counterexample byte {i} is not 0 or 1")),
        })
        .collect()
}

/// Why [`prove_and_emit`] failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EmitError {
    /// The engine run itself failed.
    Engine(CecError),
    /// Writing an artifact or the manifest failed.
    Io(String),
}

impl fmt::Display for EmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EmitError::Engine(e) => write!(f, "{e}"),
            EmitError::Io(msg) => write!(f, "bundle i/o error: {msg}"),
        }
    }
}

impl std::error::Error for EmitError {}

impl From<CecError> for EmitError {
    fn from(e: CecError) -> EmitError {
        EmitError::Engine(e)
    }
}

fn io_err(what: &str, e: &io::Error) -> EmitError {
    EmitError::Io(format!("{what}: {e}"))
}

fn remove_if_present(path: &Path) -> Result<(), EmitError> {
    match fs::remove_file(path) {
        Err(e) if e.kind() != io::ErrorKind::NotFound => {
            Err(io_err(&format!("remove {}", path.display()), &e))
        }
        _ => Ok(()),
    }
}

/// Commits the bundle: the manifest goes to a temp file, is synced, and
/// is renamed into place (the directory is synced after the rename), so
/// a crash leaves either no manifest or the complete one. Artifact
/// bytes are not synced: after a power cut a manifest that outlived its
/// artifacts' data fails the fingerprint gate instead of vouching for
/// them.
fn commit_manifest(paths: &BundlePaths, manifest: &Manifest) -> Result<(), EmitError> {
    let tmp = paths.file("manifest.json.tmp");
    let written = fs::File::create(&tmp)
        .and_then(|mut f| {
            f.write_all(manifest.render().as_bytes())?;
            f.sync_all()
        })
        .and_then(|()| fs::rename(&tmp, paths.manifest()))
        .and_then(|()| fs::File::open(&paths.dir)?.sync_all());
    if written.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    written.map_err(|e| io_err("commit manifest.json", &e))
}

/// Runs one engine check and persists the bundle for it in `dir`,
/// committed by its manifest. Rerunning over a directory an interrupted
/// or earlier emission left behind replaces its contents: the old
/// manifest is removed first, and artifacts the new verdict does not
/// carry are deleted before the new manifest lands. An equivalent
/// verdict is only auditable with its proof, so `options.proof` should
/// stay on.
///
/// # Errors
///
/// [`EmitError::Engine`] for engine failures, [`EmitError::Io`] for
/// artifact write failures.
pub fn prove_and_emit(
    dir: &Path,
    a: &Aig,
    b: &Aig,
    options: &EngineConfig,
) -> Result<CecOutcome, EmitError> {
    let paths = BundlePaths::new(dir);
    fs::create_dir_all(dir).map_err(|e| io_err("create bundle dir", &e))?;
    // Uncommit first, so no old manifest ever vouches for new bytes.
    remove_if_present(&paths.manifest())?;
    let outcome = Session::new(options.clone(), &SharedContext::disabled()).check(a, b)?;

    let aiger = |g: &Aig| {
        let mut bytes = Vec::new();
        aig::aiger::write_ascii(g, &mut bytes).expect("write to Vec cannot fail");
        bytes
    };
    let mut cnf_bytes = Vec::new();
    let miter = Miter::build(a, b, options.share_structure);
    cnf::dimacs::write(&miter_cnf(&miter), &mut cnf_bytes).expect("write to Vec cannot fail");
    let mut artifacts: Vec<(&'static str, Vec<u8>)> = vec![
        ("a.aag", aiger(a)),
        ("b.aag", aiger(b)),
        ("miter.cnf", cnf_bytes),
    ];
    match &outcome {
        CecOutcome::Equivalent(cert) => {
            if let Some(p) = &cert.proof {
                let mut tc = Vec::new();
                proof::export::write_tracecheck(p, &mut tc).expect("write to Vec cannot fail");
                let mut drat = Vec::new();
                proof::export::write_drat(p, &mut drat).expect("write to Vec cannot fail");
                let mut info = Vec::new();
                cert.info()
                    .write(&mut info)
                    .expect("write to Vec cannot fail");
                artifacts.extend([("proof.tc", tc), ("proof.drat", drat), ("cert.cert", info)]);
            }
        }
        CecOutcome::Inequivalent { counterexample, .. } => {
            artifacts.push(("cex", write_cex(&counterexample.pattern)));
        }
    }
    for (name, bytes) in &artifacts {
        fs::write(paths.file(name), bytes).map_err(|e| io_err(&format!("write {name}"), &e))?;
    }
    for name in ARTIFACTS {
        if !artifacts.iter().any(|(n, _)| n == name) {
            remove_if_present(&paths.file(name))?;
        }
    }
    let manifest = Manifest {
        equivalent: outcome.is_equivalent(),
        share_structure: options.share_structure,
        entries: artifacts
            .iter()
            .map(|(name, bytes)| (*name, fnv1a64_hex(bytes)))
            .collect(),
    };
    commit_manifest(&paths, &manifest)?;
    Ok(outcome)
}

/// Reads the manifest and verifies every listed fingerprint.
/// Hash-verified artifact bytes land in `verified`. Returns the
/// manifest when it parsed.
fn check_manifest(
    paths: &BundlePaths,
    report: &mut Report,
    cap: usize,
    verified: &mut HashMap<&'static str, Vec<u8>>,
) -> Option<Manifest> {
    let manifest = fs::read_to_string(paths.manifest())
        .map_err(|e| format!("manifest.json unreadable: {e}"))
        .and_then(|text| Manifest::parse(&text));
    let manifest = match manifest {
        Ok(m) => m,
        Err(why) => {
            report.emit(XB011, None, cap, || why);
            return None;
        }
    };
    for (name, fnv) in &manifest.entries {
        match fs::read(paths.file(name)) {
            Err(e) => report.emit(XB011, None, cap, || {
                format!("manifest names absent file `{name}`: {e}")
            }),
            Ok(bytes) => {
                let actual = fnv1a64_hex(&bytes);
                if actual == *fnv {
                    verified.insert(name, bytes);
                } else {
                    report.emit(XB010, None, cap, || {
                        format!(
                            "`{name}`: content hash {actual} disagrees with \
                             manifest ({fnv})"
                        )
                    });
                }
            }
        }
    }
    for name in ARTIFACTS {
        if !manifest.lists(name) && paths.file(name).exists() {
            report.emit(XB011, None, cap, || {
                format!("artifact `{name}` is on disk but not in the manifest")
            });
        }
    }
    Some(manifest)
}

/// The verdict rule: an equivalent bundle lists `proof.tc` and
/// `cert.cert` and no `cex`; an inequivalent one lists `cex` and no
/// proof artifact.
fn check_evidence(manifest: &Manifest, report: &mut Report, cap: usize) {
    let (verdict, required, forbidden): (&str, &[&str], &[&str]) = if manifest.equivalent {
        ("equivalent", &["proof.tc", "cert.cert"], &["cex"])
    } else {
        ("inequivalent", &["cex"], PROOF_ARTIFACTS)
    };
    for name in required {
        if !manifest.lists(name) {
            report.emit(XB011, None, cap, || {
                format!("an {verdict} bundle must list `{name}`")
            });
        }
    }
    for name in forbidden {
        if manifest.lists(name) {
            report.emit(XB011, None, cap, || {
                format!("an {verdict} bundle must not carry `{name}`")
            });
        }
    }
}

/// Checks the bundle in `dir`: manifest fingerprints, the verdict rule,
/// per-artifact parses and lints, and cross-artifact consistency. Never
/// panics and never errors — every defect, including an unreadable
/// directory, becomes a diagnostic in the returned report.
#[must_use]
pub fn check_bundle(dir: &Path, opts: &LintOptions) -> Report {
    let paths = BundlePaths::new(dir);
    let mut report = Report::new(Artifact::Bundle);
    let cap = opts.max_per_lint;
    let mut verified: HashMap<&'static str, Vec<u8>> = HashMap::new();
    let Some(manifest) = check_manifest(&paths, &mut report, cap, &mut verified) else {
        return report;
    };
    check_evidence(&manifest, &mut report, cap);
    // An equivalent verdict stands on a refutation.
    let proof_opts = LintOptions {
        expect_refutation: opts.expect_refutation || manifest.equivalent,
        ..opts.clone()
    };

    // Per-artifact parses. A hash-verified artifact that still fails to
    // parse means the *producer* wrote garbage — a bundle-level defect.
    let mut unparseable: Vec<(&'static str, String)> = Vec::new();
    let read_aig = |name: &'static str, sink: &mut Vec<(&'static str, String)>| {
        let bytes = verified.get(name)?;
        match aig::aiger::read(bytes.as_slice()) {
            Ok(g) => Some(g),
            Err(e) => {
                sink.push((name, e.to_string()));
                None
            }
        }
    };
    let a = read_aig("a.aag", &mut unparseable);
    let b = read_aig("b.aag", &mut unparseable);
    let formula =
        verified
            .get("miter.cnf")
            .and_then(|bytes| match cnf::dimacs::read(Cursor::new(bytes)) {
                Ok(f) => Some(f),
                Err(e) => {
                    unparseable.push(("miter.cnf", e.to_string()));
                    None
                }
            });
    let proof = verified.get("proof.tc").and_then(|bytes| {
        let (tc_report, p) = read_tracecheck(Cursor::new(bytes), &proof_opts)
            .expect("reading from memory cannot fail");
        report.absorb(tc_report);
        p
    });
    if let Some(bytes) = verified.get("proof.drat") {
        let drat_report = lint_drat(Cursor::new(bytes), formula.as_ref(), &proof_opts)
            .expect("reading from memory cannot fail");
        report.absorb(drat_report);
    }
    let certificate = verified.get("cert.cert").and_then(|bytes| {
        let text = match std::str::from_utf8(bytes) {
            Ok(t) => t,
            Err(e) => {
                unparseable.push(("cert.cert", e.to_string()));
                return None;
            }
        };
        match CertificateInfo::parse(text) {
            Ok(info) => Some(info),
            Err(e) => {
                unparseable.push(("cert.cert", e));
                None
            }
        }
    });
    let cex = verified
        .get("cex")
        .and_then(|bytes| match parse_cex(bytes) {
            Ok(pattern) => Some(pattern),
            Err(e) => {
                unparseable.push(("cex", e));
                None
            }
        });
    for (name, why) in unparseable {
        report.emit(XB011, None, cap, || {
            format!("`{name}` is unparseable despite a matching hash: {why}")
        });
    }

    // Cross-artifact binding over the miter rebuilt from the AIGER pair
    // with the manifest's structural-sharing flag.
    let miter_graph = match (&a, &b) {
        (Some(a), Some(b)) => Some(Miter::build(a, b, manifest.share_structure).graph),
        _ => None,
    };
    report.absorb(lint_bundle(
        &Bundle {
            aig: miter_graph.as_ref(),
            cnf: formula.as_ref(),
            proof: proof.as_ref(),
            certificate: certificate.as_ref(),
        },
        opts,
    ));

    // The counterexample must still distinguish the circuits.
    if let (Some(pattern), Some(a), Some(b)) = (&cex, &a, &b) {
        if pattern.len() != a.num_inputs() || pattern.len() != b.num_inputs() {
            report.emit(XB011, None, cap, || {
                format!(
                    "the counterexample has {} bits for {}-input circuits",
                    pattern.len(),
                    a.num_inputs()
                )
            });
        } else if a.evaluate(pattern) == b.evaluate(pattern) {
            report.emit(XB011, None, cap, || {
                "the counterexample does not distinguish the circuits".into()
            });
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{corrupt, FaultMode};
    use aig::gen;

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("chaos-bundle-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&p);
        p
    }

    fn options() -> EngineConfig {
        EngineConfig::default()
    }

    fn check(dir: &Path) -> Report {
        check_bundle(dir, &LintOptions::default())
    }

    /// An inequivalent pair: a parity chain against a differing mutant.
    fn inequivalent_pair() -> (Aig, Aig) {
        let a = gen::parity_chain(8);
        let b = gen::mutate(&a, 7).expect("mutant");
        (a, b)
    }

    /// Rewrites the manifest through `edit`, then re-fingerprints every
    /// listed artifact from disk — the forger's last step.
    fn forge_manifest(dir: &Path, edit: impl FnOnce(&mut Manifest)) {
        let paths = BundlePaths::new(dir);
        let mut m = Manifest::parse(&fs::read_to_string(paths.manifest()).unwrap()).unwrap();
        edit(&mut m);
        for (name, fnv) in &mut m.entries {
            *fnv = fnv1a64_hex(&fs::read(paths.file(name)).unwrap());
        }
        fs::write(paths.manifest(), m.render()).unwrap();
    }

    fn messages(r: &Report) -> String {
        r.diagnostics()
            .iter()
            .map(|d| d.message.as_str())
            .collect::<Vec<_>>()
            .join("; ")
    }

    #[test]
    fn manifest_and_cex_round_trip_and_reject_noncanonical_bytes() {
        let m = Manifest {
            equivalent: false,
            share_structure: true,
            entries: vec![("a.aag", "00ff".into()), ("cex", "0123".into())],
        };
        let text = m.render();
        assert_eq!(Manifest::parse(&text), Ok(m));
        assert!(Manifest::parse(text.trim_end()).is_err(), "missing newline");
        assert!(Manifest::parse(&text.replace(":2,", ":1,")).is_err());
        assert!(Manifest::parse(&text.replace("a.aag", "cex")).is_err());
        assert!(Manifest::parse(&text.replace("a.aag", "../x")).is_err());

        let pattern = [true, false, false, true];
        assert_eq!(write_cex(&pattern), b"1001\n");
        assert_eq!(parse_cex(&write_cex(&pattern)).unwrap(), pattern);
        assert_eq!(parse_cex(b"\n").unwrap(), Vec::<bool>::new());
        assert!(parse_cex(b"1001").is_err());
        assert!(parse_cex(b"10x1\n").is_err());
    }

    #[test]
    fn emitted_bundle_checks_clean() {
        let dir = tmp("clean");
        let a = gen::ripple_carry_adder(4);
        let b = gen::carry_lookahead_adder(4);
        let outcome = prove_and_emit(&dir, &a, &b, &options()).unwrap();
        assert!(outcome.is_equivalent());
        let r = check(&dir);
        assert!(r.is_clean(), "{:?}", r.diagnostics());
        let m = Manifest::parse(&fs::read_to_string(dir.join(MANIFEST)).unwrap()).unwrap();
        let listed: Vec<&str> = m.entries.iter().map(|(n, _)| *n).collect();
        assert_eq!(listed, &ARTIFACTS[..6], "six artifacts, no cex");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn inequivalent_bundle_checks_clean_and_reverifies_the_counterexample() {
        let dir = tmp("ineq");
        let (a, b) = inequivalent_pair();
        let outcome = prove_and_emit(&dir, &a, &b, &options()).unwrap();
        assert!(!outcome.is_equivalent());
        let r = check(&dir);
        assert!(r.is_clean(), "{:?}", r.diagnostics());
        let paths = BundlePaths::new(&dir);
        assert!(paths.cex().is_file() && !paths.proof().exists());

        // Forge the verdict: claim equivalence over the SAT-side evidence.
        let text = fs::read_to_string(paths.manifest()).unwrap();
        fs::write(
            paths.manifest(),
            text.replace("\"inequivalent\"", "\"equivalent\""),
        )
        .unwrap();
        let r = check(&dir);
        assert!(r.has("XB011"), "{:?}", r.diagnostics());
        assert!(messages(&r).contains("must list `proof.tc`"), "{r:?}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn non_distinguishing_counterexample_is_rejected() {
        let dir = tmp("cex-swap");
        let (a, b) = inequivalent_pair();
        prove_and_emit(&dir, &a, &b, &options()).unwrap();
        let agreeing = (0u32..1 << a.num_inputs())
            .map(|bits| {
                (0..a.num_inputs())
                    .map(|i| bits >> i & 1 == 1)
                    .collect::<Vec<bool>>()
            })
            .find(|p| a.evaluate(p) == b.evaluate(p))
            .expect("the circuits agree somewhere");
        fs::write(BundlePaths::new(&dir).cex(), write_cex(&agreeing)).unwrap();
        forge_manifest(&dir, |_| {});
        let r = check(&dir);
        assert!(r.has("XB011"), "{:?}", r.diagnostics());
        assert!(!r.has("XB010"), "re-fingerprinted: {:?}", r.diagnostics());
        assert!(messages(&r).contains("does not distinguish"), "{r:?}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn flipped_share_structure_breaks_the_miter_binding() {
        let dir = tmp("share");
        let a = gen::ripple_carry_adder(4);
        let b = gen::kogge_stone_adder(4);
        prove_and_emit(&dir, &a, &b, &options()).unwrap();
        forge_manifest(&dir, |m| m.share_structure = !m.share_structure);
        let r = check(&dir);
        assert!(!r.is_clean(), "flipped share_structure accepted");
        assert!(
            ["XB001", "XB002", "XB003"].iter().any(|c| r.has(c)),
            "{:?}",
            r.diagnostics()
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn equivalent_bundle_cannot_carry_a_cex_or_drop_its_proof() {
        let dir = tmp("evidence");
        let a = gen::ripple_carry_adder(3);
        let b = gen::brent_kung_adder(3);
        prove_and_emit(&dir, &a, &b, &options()).unwrap();
        let paths = BundlePaths::new(&dir);
        let pristine = fs::read(paths.manifest()).unwrap();

        fs::write(paths.cex(), write_cex(&vec![false; a.num_inputs()])).unwrap();
        forge_manifest(&dir, |m| m.entries.push(("cex", String::new())));
        let r = check(&dir);
        assert!(r.has("XB011"), "{:?}", r.diagnostics());
        assert!(messages(&r).contains("must not carry `cex`"), "{r:?}");
        fs::remove_file(paths.cex()).unwrap();
        fs::write(paths.manifest(), &pristine).unwrap();
        assert!(check(&dir).is_clean());

        fs::remove_file(paths.proof()).unwrap();
        forge_manifest(&dir, |m| m.entries.retain(|(n, _)| *n != "proof.tc"));
        let r = check(&dir);
        assert!(r.has("XB011"), "{:?}", r.diagnostics());
        assert!(messages(&r).contains("must list `proof.tc`"), "{r:?}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn every_flipped_artifact_is_rejected() {
        let dir = tmp("flip");
        let a = gen::ripple_carry_adder(4);
        let b = gen::kogge_stone_adder(4);
        prove_and_emit(&dir, &a, &b, &options()).unwrap();
        let paths = BundlePaths::new(&dir);
        for name in ARTIFACTS.iter().filter(|n| paths.file(n).exists()) {
            let path = paths.file(name);
            let original = fs::read(&path).unwrap();
            let mut bytes = original.clone();
            corrupt(&mut bytes, FaultMode::Flip, 1);
            fs::write(&path, &bytes).unwrap();
            let r = check(&dir);
            assert!(!r.is_clean(), "flip in {name} accepted");
            assert!(r.has("XB010"), "flip in {name}: {:?}", r.diagnostics());
            fs::write(&path, &original).unwrap();
        }
        // A corrupted manifest itself is rejected too.
        let original = fs::read(paths.manifest()).unwrap();
        let mut bytes = original.clone();
        corrupt(&mut bytes, FaultMode::Truncate, 3);
        fs::write(paths.manifest(), &bytes).unwrap();
        let r = check(&dir);
        assert!(!r.is_clean(), "truncated manifest accepted");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_and_unlisted_files_are_manifest_defects() {
        let dir = tmp("missing");
        let a = gen::ripple_carry_adder(3);
        let b = gen::brent_kung_adder(3);
        prove_and_emit(&dir, &a, &b, &options()).unwrap();
        let paths = BundlePaths::new(&dir);

        let saved = fs::read(paths.certificate()).unwrap();
        fs::remove_file(paths.certificate()).unwrap();
        let r = check(&dir);
        assert!(r.has("XB011"), "{:?}", r.diagnostics());
        fs::write(paths.certificate(), &saved).unwrap();

        // Hide an artifact from the manifest: on-disk but unlisted.
        forge_manifest(&dir, |m| m.entries.retain(|(n, _)| *n != "proof.drat"));
        let r = check(&dir);
        assert!(r.has("XB011"), "{:?}", r.diagnostics());
        assert!(messages(&r).contains("not in the manifest"), "{r:?}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn uncommitted_bundle_is_rejected_and_a_rerun_commits_it() {
        let dir = tmp("uncommitted");
        let a = gen::popcount_serial(6);
        let b = gen::popcount_csa(6);
        prove_and_emit(&dir, &a, &b, &options()).unwrap();
        let paths = BundlePaths::new(&dir);
        // A crash before the commit: every artifact, a half-written
        // temp manifest, no manifest.
        fs::remove_file(paths.manifest()).unwrap();
        fs::write(paths.file("manifest.json.tmp"), b"{\"format\":2,").unwrap();
        let r = check(&dir);
        assert!(r.has("XB011"), "{:?}", r.diagnostics());

        let outcome = prove_and_emit(&dir, &a, &b, &options()).unwrap();
        assert!(outcome.is_equivalent());
        let r = check(&dir);
        assert!(r.is_clean(), "{:?}", r.diagnostics());
        assert!(!paths.file("manifest.json.tmp").exists());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rerun_with_another_verdict_drops_stale_artifacts() {
        let dir = tmp("rerun");
        let (a, b) = inequivalent_pair();
        prove_and_emit(&dir, &a, &b, &options()).unwrap();
        let outcome = prove_and_emit(&dir, &a, &gen::parity_tree(8), &options()).unwrap();
        assert!(outcome.is_equivalent());
        assert!(!BundlePaths::new(&dir).cex().exists());
        let r = check(&dir);
        assert!(r.is_clean(), "{:?}", r.diagnostics());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checker_survives_a_nonexistent_directory() {
        let r = check(Path::new("/nonexistent/chaos-bundle"));
        assert!(!r.is_clean());
        assert!(r.has("XB011"));
    }
}
