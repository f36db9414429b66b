//! Content hashing for persisted artifacts.
//!
//! FNV-1a (64-bit) is the repo's canonical content fingerprint: fast,
//! dependency-free, and stable across platforms. It guards *integrity*
//! of persisted artifacts (bundle manifests, cache keys), not
//! adversarial tampering — the threat model is bit rot, torn writes,
//! and fault injection, where any corruption must be *detected*, not
//! cryptographically prevented.

/// FNV-1a 64-bit hash of `bytes`.
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// [`fnv1a64`] rendered as the canonical 16-digit lower-case hex string
/// used in bundle manifests.
#[must_use]
pub fn fnv1a64_hex(bytes: &[u8]) -> String {
    format!("{:016x}", fnv1a64(bytes))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Standard FNV-1a test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn hex_is_fixed_width() {
        assert_eq!(fnv1a64_hex(b"").len(), 16);
        assert_eq!(fnv1a64_hex(b""), "cbf29ce484222325");
    }

    #[test]
    fn single_bit_flip_changes_hash() {
        let base = b"the quick brown fox".to_vec();
        let h0 = fnv1a64(&base);
        for byte in 0..base.len() {
            for bit in 0..8 {
                let mut flipped = base.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(fnv1a64(&flipped), h0, "flip {byte}:{bit} collided");
            }
        }
    }
}
