//! The certificate store: an in-memory LRU over proven verdicts with an
//! optional on-disk spill tier, every hit replay-validated before it is
//! served.

use crate::canon::{CacheKey, CanonicalPair};
use cec::{miter_cnf, Miter};
use obs::metrics::{self, Metrics};
use std::collections::HashMap;
use std::io::Write;
use std::path::PathBuf;

/// Configuration of a [`CertCache`].
#[derive(Clone, Debug)]
pub struct CacheConfig {
    /// Maximum in-memory entries; least-recently-used entries beyond
    /// this spill to disk (if a spill dir is set) or are dropped.
    pub capacity: usize,
    /// Second-tier directory: evicted entries are written here and
    /// promoted back on lookup. `None` disables the disk tier.
    pub spill_dir: Option<PathBuf>,
    /// Must match the engine's `share_structure` option — the replay
    /// validation rebuilds the miter the same way the prover did, so a
    /// cached refutation re-binds to exactly the clauses the engine
    /// would feed its solver.
    pub share_structure: bool,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            capacity: 256,
            spill_dir: None,
            share_structure: true,
        }
    }
}

/// A cached, *proven* verdict. Holding one of these means validation
/// succeeded against the querying pair at lookup time or the verdict
/// was just proven by the engine.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CachedVerdict {
    /// The pair is equivalent; `tracecheck` is the serialized
    /// refutation, byte-identical to what a fresh proof of the
    /// canonical pair produces.
    Equivalent {
        /// TraceCheck bytes of the refutation.
        tracecheck: Vec<u8>,
    },
    /// The pair is inequivalent under this input pattern.
    Inequivalent {
        /// Distinguishing input pattern, one bool per circuit input.
        pattern: Vec<bool>,
    },
}

/// Verdict counters, mirrored into `cec.cache.*` metrics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from cache (after successful replay validation).
    pub hits: u64,
    /// Lookups that found nothing servable.
    pub misses: u64,
    /// In-memory entries pushed out by the LRU policy.
    pub evictions: u64,
    /// Entries found but rejected by replay validation (and dropped).
    pub replay_rejects: u64,
    /// Entries inserted (fresh proofs recorded).
    pub insertions: u64,
    /// Evicted entries that could not be written to the spill dir (the
    /// entry is lost; a later lookup misses and re-proves).
    pub spill_errors: u64,
}

struct Entry {
    verdict: CachedVerdict,
    last_used: u64,
}

/// The cross-query certificate cache.
///
/// Keys are structural ([`CanonicalPair::key`]); values are proven
/// verdicts. The cache never serves trust: [`CertCache::lookup`]
/// replays every candidate against the querying pair and converts
/// validation failures into misses, so a corrupted or poisoned entry
/// (wrong bytes on disk, an entry inserted for the wrong pair) is
/// dropped, counted in [`CacheStats::replay_rejects`], and the caller
/// re-proves.
pub struct CertCache {
    config: CacheConfig,
    map: HashMap<String, Entry>,
    tick: u64,
    stats: CacheStats,
    m_hits: metrics::Counter,
    m_misses: metrics::Counter,
    m_evictions: metrics::Counter,
    m_replay_rejects: metrics::Counter,
    m_insertions: metrics::Counter,
    m_spill_errors: metrics::Counter,
    m_entries: metrics::Gauge,
}

impl CertCache {
    /// Creates a cache reporting into `metrics` (`cec.cache.*` cells;
    /// pass `Metrics::disabled()` for none). If a spill dir is
    /// configured it is created eagerly so later evictions cannot fail
    /// on a missing path.
    pub fn new(config: CacheConfig, metrics: &Metrics) -> std::io::Result<Self> {
        if let Some(dir) = &config.spill_dir {
            std::fs::create_dir_all(dir)?;
        }
        Ok(CertCache {
            config,
            map: HashMap::new(),
            tick: 0,
            stats: CacheStats::default(),
            m_hits: metrics.counter("cec.cache.hits"),
            m_misses: metrics.counter("cec.cache.misses"),
            m_evictions: metrics.counter("cec.cache.evictions"),
            m_replay_rejects: metrics.counter("cec.cache.replay_rejects"),
            m_insertions: metrics.counter("cec.cache.insertions"),
            m_spill_errors: metrics.counter("cec.cache.spill_errors"),
            m_entries: metrics.gauge("cec.cache.entries"),
        })
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// In-memory entry count.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the in-memory tier is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Looks up a verdict for `pair`, validating before serving.
    ///
    /// Returns `None` (a miss) when no entry exists *or* when the
    /// stored entry fails replay validation — the caller cannot
    /// distinguish a poisoned entry from an absent one, which is the
    /// point: both mean "prove it yourself".
    pub fn lookup(&mut self, pair: &CanonicalPair) -> Option<CachedVerdict> {
        self.tick += 1;
        let key = pair.key.as_hex().to_string();
        let candidate = if let Some(e) = self.map.get_mut(&key) {
            e.last_used = self.tick;
            Some(e.verdict.clone())
        } else {
            self.read_spill(&pair.key)
        };
        let Some(verdict) = candidate else {
            self.miss();
            return None;
        };
        if validate(pair, &verdict, self.config.share_structure) {
            // A disk-tier hit is promoted into memory.
            if !self.map.contains_key(&key) {
                self.install(key, verdict.clone());
            }
            self.stats.hits += 1;
            self.m_hits.inc();
            Some(verdict)
        } else {
            // Poisoned or stale: drop both tiers, report a miss.
            self.map.remove(&key);
            self.remove_spill(&pair.key);
            self.update_entries_gauge();
            self.stats.replay_rejects += 1;
            self.m_replay_rejects.inc();
            self.miss();
            None
        }
    }

    /// Records a freshly proven verdict for `pair`.
    pub fn insert(&mut self, pair: &CanonicalPair, verdict: CachedVerdict) {
        self.tick += 1;
        self.stats.insertions += 1;
        self.m_insertions.inc();
        self.install(pair.key.as_hex().to_string(), verdict);
    }

    fn install(&mut self, key: String, verdict: CachedVerdict) {
        let tick = self.tick;
        self.map.insert(
            key,
            Entry {
                verdict,
                last_used: tick,
            },
        );
        while self.map.len() > self.config.capacity.max(1) {
            self.evict_lru();
        }
        self.update_entries_gauge();
    }

    fn evict_lru(&mut self) {
        let Some(victim) = self
            .map
            .iter()
            .min_by_key(|(_, e)| e.last_used)
            .map(|(k, _)| k.clone())
        else {
            return;
        };
        let entry = self.map.remove(&victim).expect("victim present");
        if self.write_spill(&victim, &entry.verdict).is_err() {
            self.stats.spill_errors += 1;
            self.m_spill_errors.inc();
        }
        self.stats.evictions += 1;
        self.m_evictions.inc();
    }

    fn miss(&mut self) {
        self.stats.misses += 1;
        self.m_misses.inc();
    }

    #[allow(clippy::cast_possible_wrap)]
    fn update_entries_gauge(&self) {
        self.m_entries.set(self.map.len() as i64);
    }

    fn spill_path(&self, key: &CacheKey) -> Option<PathBuf> {
        self.config
            .spill_dir
            .as_ref()
            .map(|d| d.join(format!("{key}.cert")))
    }

    /// Spill format: one header line (`eq` or `ne <pattern>`), then the
    /// tracecheck bytes for `eq`. Deliberately trivial — corruption is
    /// caught by replay validation, not by the format.
    ///
    /// Crash-consistent: the bytes go to `<key>.cert.tmp`, are synced,
    /// and only then renamed over `<key>.cert` (the directory is synced
    /// after the rename), so a crash leaves either the old file, the
    /// complete new one, or a stray `.tmp` that lookups never read.
    fn write_spill(&self, key: &str, verdict: &CachedVerdict) -> std::io::Result<()> {
        let Some(dir) = &self.config.spill_dir else {
            return Ok(());
        };
        let path = dir.join(format!("{key}.cert"));
        let tmp = dir.join(format!("{key}.cert.tmp"));
        let bytes = match verdict {
            CachedVerdict::Equivalent { tracecheck } => {
                let mut v = b"eq\n".to_vec();
                v.extend_from_slice(tracecheck);
                v
            }
            CachedVerdict::Inequivalent { pattern } => {
                let mut v = b"ne ".to_vec();
                v.extend(pattern.iter().map(|&b| if b { b'1' } else { b'0' }));
                v.push(b'\n');
                v
            }
        };
        let written = std::fs::File::create(&tmp)
            .and_then(|mut f| {
                f.write_all(&bytes)?;
                f.sync_all()
            })
            .and_then(|()| std::fs::rename(&tmp, &path))
            .and_then(|()| std::fs::File::open(dir)?.sync_all());
        if written.is_err() {
            // Best effort: a leftover temp file is never read anyway.
            let _ = std::fs::remove_file(&tmp);
        }
        written
    }

    fn read_spill(&self, key: &CacheKey) -> Option<CachedVerdict> {
        let path = self.spill_path(key)?;
        let bytes = std::fs::read(path).ok()?;
        if let Some(rest) = bytes.strip_prefix(b"eq\n") {
            return Some(CachedVerdict::Equivalent {
                tracecheck: rest.to_vec(),
            });
        }
        let rest = bytes.strip_prefix(b"ne ")?;
        let line = rest.strip_suffix(b"\n").unwrap_or(rest);
        let mut pattern = Vec::with_capacity(line.len());
        for &c in line {
            match c {
                b'0' => pattern.push(false),
                b'1' => pattern.push(true),
                _ => return None,
            }
        }
        Some(CachedVerdict::Inequivalent { pattern })
    }

    fn remove_spill(&self, key: &CacheKey) {
        if let Some(path) = self.spill_path(key) {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// Replay-validates a candidate verdict against the pair it is about to
/// be served for. This is the cache's trust boundary: everything read
/// from memory or disk passes through here, and only `true` lets a
/// verdict out.
///
/// - An equivalence certificate must parse, its resolution steps must
///   replay (`proof::check::check_refutation`), and every original
///   clause it builds on must be a clause of *this pair's* miter CNF —
///   so a certificate for some other pair (or a tampered one) cannot
///   re-bind.
/// - A counterexample must actually distinguish the two circuits when
///   re-evaluated.
fn validate(pair: &CanonicalPair, verdict: &CachedVerdict, share_structure: bool) -> bool {
    match verdict {
        CachedVerdict::Equivalent { tracecheck } => {
            let Ok(p) = proof::import::read_tracecheck(tracecheck.as_slice()) else {
                return false;
            };
            if proof::check::check_refutation(&p).is_err() {
                return false;
            }
            originals_bind_to_miter(pair, &p, share_structure)
        }
        CachedVerdict::Inequivalent { pattern } => {
            if pattern.len() != pair.a.num_inputs() {
                return false;
            }
            pair.a.evaluate(pattern) != pair.b.evaluate(pattern)
        }
    }
}

/// Every original step of `p` must occur (as a literal multiset) among
/// the clauses of the pair's miter CNF.
fn originals_bind_to_miter(pair: &CanonicalPair, p: &proof::Proof, share_structure: bool) -> bool {
    let miter = Miter::build(&pair.a, &pair.b, share_structure);
    let formula = miter_cnf(&miter);
    let mut available: HashMap<Vec<cnf::Lit>, usize> = HashMap::new();
    for c in formula.clauses() {
        let mut k = c.clone();
        k.sort_unstable_by_key(|l| l.to_dimacs());
        *available.entry(k).or_insert(0) += 1;
    }
    for (_, step) in p.iter() {
        if !step.is_original() {
            continue;
        }
        let mut k = step.clause.to_vec();
        k.sort_unstable_by_key(|l| l.to_dimacs());
        match available.get_mut(&k) {
            Some(n) if *n > 0 => *n -= 1,
            _ => return false,
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::canon::CanonicalPair;
    use aig::gen::{kogge_stone_adder, mutate, ripple_carry_adder};
    use cec::{EngineConfig, Session, SharedContext};

    fn prove_verdict(pair: &CanonicalPair) -> CachedVerdict {
        let outcome = Session::new(EngineConfig::default(), &SharedContext::disabled())
            .check(&pair.a, &pair.b)
            .unwrap();
        match outcome {
            cec::CecOutcome::Equivalent(cert) => {
                let mut bytes = Vec::new();
                proof::export::write_tracecheck(cert.proof.as_ref().unwrap(), &mut bytes).unwrap();
                CachedVerdict::Equivalent { tracecheck: bytes }
            }
            cec::CecOutcome::Inequivalent { counterexample, .. } => CachedVerdict::Inequivalent {
                pattern: counterexample.pattern,
            },
        }
    }

    #[test]
    fn isomorphic_hit_with_byte_identical_certificate() {
        let a = ripple_carry_adder(5);
        let b = kogge_stone_adder(5);
        let mut cache = CertCache::new(CacheConfig::default(), &Metrics::disabled()).unwrap();

        let pair = CanonicalPair::new(&a, &b);
        assert_eq!(cache.lookup(&pair), None, "cold cache misses");
        let fresh = prove_verdict(&pair);
        cache.insert(&pair, fresh.clone());

        // The same pair under a different node numbering: same key,
        // and the served certificate equals a fresh proof byte for
        // byte (the engine proves canonical forms).
        let iso = CanonicalPair::new(&a.permute_rebuild(7), &b.permute_rebuild(19));
        assert_eq!(iso.key, pair.key);
        let served = cache.lookup(&iso).expect("isomorphic query hits");
        assert_eq!(served, fresh, "hit and miss agree byte for byte");
        assert_eq!(served, prove_verdict(&iso));
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.stats().misses, 1);
    }

    #[test]
    fn near_miss_mutant_misses() {
        let a = ripple_carry_adder(5);
        let b = kogge_stone_adder(5);
        let mut cache = CertCache::new(CacheConfig::default(), &Metrics::disabled()).unwrap();
        let pair = CanonicalPair::new(&a, &b);
        cache.insert(&pair, prove_verdict(&pair));

        let mutant = (0..40)
            .filter_map(|s| mutate(&b, s))
            .find(|m| aig::sim::exhaustive_diff(&b, m, 11).is_some())
            .expect("differing mutant");
        let near = CanonicalPair::new(&a, &mutant);
        assert_ne!(near.key, pair.key, "one-gate mutant gets its own key");
        assert_eq!(cache.lookup(&near), None, "near miss is a miss");
    }

    #[test]
    fn counterexample_verdicts_cache_and_validate() {
        let a = ripple_carry_adder(4);
        let b = (0..40)
            .filter_map(|s| mutate(&a, s))
            .find(|m| aig::sim::exhaustive_diff(&a, m, 9).is_some())
            .expect("differing mutant");
        let mut cache = CertCache::new(CacheConfig::default(), &Metrics::disabled()).unwrap();
        let pair = CanonicalPair::new(&a, &b);
        let verdict = prove_verdict(&pair);
        assert!(matches!(verdict, CachedVerdict::Inequivalent { .. }));
        cache.insert(&pair, verdict.clone());
        assert_eq!(cache.lookup(&pair).as_ref(), Some(&verdict));
        // A pattern that does NOT distinguish must be rejected.
        let bogus = CachedVerdict::Inequivalent {
            pattern: vec![false; a.num_inputs()],
        };
        let distinguishes = pair.a.evaluate(&vec![false; a.num_inputs()])
            != pair.b.evaluate(&vec![false; a.num_inputs()]);
        if !distinguishes {
            cache.insert(&pair, bogus);
            assert_eq!(cache.lookup(&pair), None, "bogus pattern rejected");
            assert_eq!(cache.stats().replay_rejects, 1);
        }
    }

    #[test]
    fn certificate_for_wrong_pair_is_rejected() {
        let a = ripple_carry_adder(4);
        let b = kogge_stone_adder(4);
        let other_a = ripple_carry_adder(5);
        let other_b = kogge_stone_adder(5);
        let mut cache = CertCache::new(CacheConfig::default(), &Metrics::disabled()).unwrap();
        let pair = CanonicalPair::new(&a, &b);
        let other = CanonicalPair::new(&other_a, &other_b);
        // Poison: store the OTHER pair's certificate under this key.
        cache.insert(&pair, prove_verdict(&other));
        assert_eq!(cache.lookup(&pair), None, "foreign certificate rejected");
        assert_eq!(cache.stats().replay_rejects, 1);
    }

    #[test]
    fn lru_evicts_to_spill_and_promotes_back() {
        let dir = std::env::temp_dir().join(format!("rcec-cache-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = CacheConfig {
            capacity: 1,
            spill_dir: Some(dir.clone()),
            share_structure: true,
        };
        let mut cache = CertCache::new(config, &Metrics::disabled()).unwrap();
        let p1 = CanonicalPair::new(&ripple_carry_adder(4), &kogge_stone_adder(4));
        let p2 = CanonicalPair::new(&ripple_carry_adder(5), &kogge_stone_adder(5));
        let v1 = prove_verdict(&p1);
        cache.insert(&p1, v1.clone());
        cache.insert(&p2, prove_verdict(&p2)); // evicts p1 to disk
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.len(), 1);
        let spilled = std::fs::read_dir(&dir).unwrap().count();
        assert_eq!(spilled, 1, "evicted entry landed on disk");
        // Disk-tier hit, validated and promoted.
        assert_eq!(cache.lookup(&p1).as_ref(), Some(&v1));
        assert_eq!(cache.stats().hits, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn spill_config(dir: &std::path::Path) -> CacheConfig {
        CacheConfig {
            capacity: 1,
            spill_dir: Some(dir.to_path_buf()),
            share_structure: true,
        }
    }

    #[test]
    fn spill_write_failures_are_counted_and_lookups_miss_cleanly() {
        let dir = std::env::temp_dir().join(format!("rcec-cache-spillerr-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let metrics = Metrics::new();
        let mut cache = CertCache::new(spill_config(&dir), &metrics).unwrap();
        // The spill dir is replaced by a plain file: every write fails.
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::write(&dir, b"not a directory").unwrap();
        let p1 = CanonicalPair::new(&ripple_carry_adder(4), &kogge_stone_adder(4));
        let p2 = CanonicalPair::new(&ripple_carry_adder(5), &kogge_stone_adder(5));
        cache.insert(&p1, prove_verdict(&p1));
        cache.insert(&p2, prove_verdict(&p2)); // evicts p1; the spill fails
        cache.insert(&p1, prove_verdict(&p1)); // evicts p2; fails again
        assert_eq!(cache.stats().evictions, 2);
        assert_eq!(cache.stats().spill_errors, 2);
        assert_eq!(metrics.counter("cec.cache.spill_errors").get(), 2);
        // The lost entry is a clean miss, not a reject or a panic.
        assert_eq!(cache.lookup(&p2), None);
        assert_eq!(cache.stats().misses, 1);
        assert_eq!(cache.stats().replay_rejects, 0);
        assert!(
            cache.lookup(&p1).is_some(),
            "the in-memory entry still serves"
        );
        let _ = std::fs::remove_file(&dir);
    }

    #[test]
    fn stray_spill_temp_file_is_never_served() {
        let dir = std::env::temp_dir().join(format!("rcec-cache-spilltmp-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut cache = CertCache::new(spill_config(&dir), &Metrics::disabled()).unwrap();
        let p1 = CanonicalPair::new(&ripple_carry_adder(4), &kogge_stone_adder(4));
        let p2 = CanonicalPair::new(&ripple_carry_adder(5), &kogge_stone_adder(5));
        cache.insert(&p1, prove_verdict(&p1));
        cache.insert(&p2, prove_verdict(&p2)); // p1 spills to disk
        assert_eq!(cache.stats().spill_errors, 0);
        let cert = dir.join(format!("{}.cert", p1.key));
        let names: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(
            names,
            vec![cert.file_name().unwrap().to_owned()],
            "no temp file left"
        );
        // A crash between write and rename leaves only the complete,
        // valid bytes under the temp name: they must not be served.
        std::fs::rename(&cert, dir.join(format!("{}.cert.tmp", p1.key))).unwrap();
        assert_eq!(cache.lookup(&p1), None);
        assert_eq!(
            cache.stats().replay_rejects,
            0,
            "the temp file is never read"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupted_spill_entry_is_rejected_not_served() {
        let dir = std::env::temp_dir().join(format!("rcec-cache-chaos-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = CacheConfig {
            capacity: 1,
            spill_dir: Some(dir.clone()),
            share_structure: true,
        };
        let mut cache = CertCache::new(config, &Metrics::disabled()).unwrap();
        let p1 = CanonicalPair::new(&ripple_carry_adder(4), &kogge_stone_adder(4));
        let p2 = CanonicalPair::new(&ripple_carry_adder(5), &kogge_stone_adder(5));
        cache.insert(&p1, prove_verdict(&p1));
        cache.insert(&p2, prove_verdict(&p2)); // p1 spills to disk

        // Corrupt the spilled certificate with each chaos fault mode.
        let path = dir.join(format!("{}.cert", p1.key));
        let pristine = std::fs::read(&path).unwrap();
        for (i, &mode) in chaos::FAULT_MODES.iter().enumerate() {
            let mut bytes = pristine.clone();
            let what = chaos::corrupt(&mut bytes, mode, 0xBAD5EED + i as u64);
            std::fs::write(&path, &bytes).unwrap();
            let before = cache.stats().replay_rejects;
            assert_eq!(
                cache.lookup(&p1),
                None,
                "corrupted entry ({what}) must be rejected, not served"
            );
            assert_eq!(cache.stats().replay_rejects, before + 1);
            // The reject dropped the spill file; restore for next mode.
            std::fs::write(&path, &pristine).unwrap();
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
