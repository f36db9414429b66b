//! Seeded fault injection over artifact bytes.
//!
//! Every corruption is a pure function of `(bytes, mode, seed)`, so a
//! failing seed reproduces exactly — the same discipline the engine
//! applies to simulation patterns.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::fmt;

/// The corruption classes the fault matrix exercises per artifact.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultMode {
    /// Flip exactly one bit.
    Flip,
    /// Flip 2–8 bits at independent positions.
    MultiFlip,
    /// Cut the file short (possibly to zero bytes).
    Truncate,
    /// Tear one *interior* line in half while keeping everything after
    /// it: the torn-write shape a crashed-then-continued writer would
    /// leave. Unlike [`FaultMode::Truncate`], later lines survive, so
    /// the damage sits mid-file rather than at a truncated tail.
    TornRecord,
}

/// Every fault mode, for matrix iteration.
pub const FAULT_MODES: &[FaultMode] = &[
    FaultMode::Flip,
    FaultMode::MultiFlip,
    FaultMode::Truncate,
    FaultMode::TornRecord,
];

impl FaultMode {
    /// Parses the CLI spelling (`flip`, `multiflip`, `truncate`,
    /// `torn-record`).
    #[must_use]
    pub fn parse(s: &str) -> Option<FaultMode> {
        match s {
            "flip" => Some(FaultMode::Flip),
            "multiflip" => Some(FaultMode::MultiFlip),
            "truncate" => Some(FaultMode::Truncate),
            "torn-record" => Some(FaultMode::TornRecord),
            _ => None,
        }
    }

    /// The CLI spelling.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            FaultMode::Flip => "flip",
            FaultMode::MultiFlip => "multiflip",
            FaultMode::Truncate => "truncate",
            FaultMode::TornRecord => "torn-record",
        }
    }
}

impl fmt::Display for FaultMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Corrupts `bytes` in place; returns a human-readable description of
/// what was done. Guaranteed to change the byte string (an empty input
/// gains a byte rather than staying empty).
pub fn corrupt(bytes: &mut Vec<u8>, mode: FaultMode, seed: u64) -> String {
    let mut rng = SmallRng::seed_from_u64(seed);
    if bytes.is_empty() {
        bytes.push(0x01);
        return "appended 0x01 to empty file".into();
    }
    match mode {
        FaultMode::Flip => {
            let byte = rng.gen_range(0..bytes.len());
            let bit = rng.gen_range(0..8u32);
            bytes[byte] ^= 1 << bit;
            format!("flipped bit {bit} of byte {byte}")
        }
        FaultMode::MultiFlip => {
            // Distinct (byte, bit) targets: repeating a flip would undo
            // it, and on tiny files that can cancel back to the
            // original bytes — which would break the "always changes"
            // contract the fault matrix relies on.
            let flips = rng.gen_range(2..=8usize).min(bytes.len() * 8);
            let mut spots: Vec<(usize, u32)> = Vec::with_capacity(flips);
            while spots.len() < flips {
                let spot = (rng.gen_range(0..bytes.len()), rng.gen_range(0..8u32));
                if !spots.contains(&spot) {
                    spots.push(spot);
                }
            }
            let mut labels = Vec::with_capacity(flips);
            for (byte, bit) in spots {
                bytes[byte] ^= 1 << bit;
                labels.push(format!("{byte}:{bit}"));
            }
            format!("flipped bits at {}", labels.join(", "))
        }
        FaultMode::Truncate => {
            let keep = rng.gen_range(0..bytes.len());
            bytes.truncate(keep);
            format!("truncated to {keep} bytes")
        }
        FaultMode::TornRecord => {
            // Non-empty lines that are followed by more data: tearing
            // one of those leaves damage *inside* the file, which a
            // reader must distinguish from a benignly truncated tail.
            let mut lines: Vec<(usize, usize)> = Vec::new();
            let mut start = 0usize;
            for (i, &b) in bytes.iter().enumerate() {
                if b == b'\n' {
                    if i + 1 < bytes.len() && i > start {
                        lines.push((start, i - start));
                    }
                    start = i + 1;
                }
            }
            let torn = if lines.is_empty() {
                None
            } else {
                Some(lines[rng.gen_range(0..lines.len())])
            };
            if let Some((ls, ll)) = torn {
                let keep = rng.gen_range(0..ll);
                bytes.drain(ls + keep..ls + ll);
                format!("tore line at byte {ls}: kept {keep} of {ll} bytes, tail preserved")
            } else if bytes.len() >= 2 {
                // Single-record file: splice out an interior chunk but
                // keep the tail, so it still is not a clean truncation.
                let cut = rng.gen_range(0..bytes.len() - 1);
                let len = rng.gen_range(1..=bytes.len() - 1 - cut);
                bytes.drain(cut..cut + len);
                format!("spliced out {len} bytes at {cut}, tail preserved")
            } else {
                bytes.clear();
                "tore the only byte".into()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corruption_always_changes_the_bytes() {
        let original: Vec<u8> = (0u8..=255).collect();
        for mode in FAULT_MODES {
            for seed in 0..100 {
                let mut bytes = original.clone();
                let what = corrupt(&mut bytes, *mode, seed);
                assert_ne!(bytes, original, "{mode} seed {seed}: {what}");
            }
        }
    }

    #[test]
    fn corruption_is_deterministic_per_seed() {
        let original = b"deterministic fault injection".to_vec();
        for mode in FAULT_MODES {
            let mut x = original.clone();
            let mut y = original.clone();
            let dx = corrupt(&mut x, *mode, 42);
            let dy = corrupt(&mut y, *mode, 42);
            assert_eq!(x, y);
            assert_eq!(dx, dy);
        }
    }

    #[test]
    fn multiflip_changes_even_one_byte_files() {
        // Repeated flips on the same bit would cancel; the distinct-spot
        // discipline means even a 1-byte file always ends up different.
        let original = b"x".to_vec();
        for seed in 0..200 {
            let mut b = original.clone();
            let what = corrupt(&mut b, FaultMode::MultiFlip, seed);
            assert_ne!(b, original, "seed {seed}: {what}");
        }
    }

    #[test]
    fn empty_input_still_changes() {
        let mut b = Vec::new();
        corrupt(&mut b, FaultMode::Truncate, 1);
        assert!(!b.is_empty());
    }

    #[test]
    fn torn_record_keeps_the_tail() {
        // Three record-shaped lines: the tear must land inside line 1
        // or 2 and line 3 (and the final newline) must survive, so the
        // damage is mid-file — not a truncated tail.
        let original = b"{\"seq\":1}\n{\"seq\":2}\n{\"seq\":3}\n".to_vec();
        for seed in 0..100 {
            let mut b = original.clone();
            let what = corrupt(&mut b, FaultMode::TornRecord, seed);
            assert_ne!(b, original, "seed {seed}: {what}");
            assert!(b.len() < original.len(), "a tear removes bytes");
            assert!(
                b.ends_with(b"{\"seq\":3}\n"),
                "seed {seed}: the final record survives the tear ({what})"
            );
        }
    }

    #[test]
    fn torn_record_on_single_line_still_changes_and_keeps_tail() {
        let original = b"one single record without newline".to_vec();
        for seed in 0..50 {
            let mut b = original.clone();
            let what = corrupt(&mut b, FaultMode::TornRecord, seed);
            assert_ne!(b, original, "seed {seed}: {what}");
            assert_eq!(b.last(), original.last(), "tail byte kept: {what}");
        }
    }

    #[test]
    fn mode_labels_round_trip() {
        for mode in FAULT_MODES {
            assert_eq!(FaultMode::parse(mode.label()), Some(*mode));
        }
        assert_eq!(FaultMode::parse("warp"), None);
    }
}
