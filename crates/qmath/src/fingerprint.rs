//! Content fingerprinting for cache keys.
//!
//! The compilation-cache layer addresses entries by *content*: a circuit,
//! matrix, or option set is reduced to a 128-bit FNV-1a digest of its
//! canonical byte stream. 128 bits keeps accidental collisions out of
//! reach for any realistic cache population (birthday bound ≈ 2⁶⁴
//! entries), while staying allocation-free and `no_std`-friendly.
//!
//! Floats are hashed *exactly* ([`Fnv128::write_f64`]): the raw IEEE-754
//! bits, so bitwise-identical inputs must (and deterministic pipelines
//! do) produce bitwise-identical keys, and an exact key can never alias
//! two different computations.
//!
//! ## Stability guarantee
//!
//! These fingerprints are **persistent-format keys**: the shared segment
//! file, the cache's durable tier (`reqisc-compiler`'s `sharing` module),
//! addresses entries by them, so their byte-level definition is frozen.
//! Concretely:
//!
//! * the FNV-1a offset/prime constants, the little-endian widening of
//!   integers, the `-0.0 → 0.0` normalization, and the length-prefixing
//!   of strings never change silently;
//! * any change to them (or to a type's `fingerprint()` field order)
//!   must bump `STORE_FORMAT_VERSION` so stale segments are rejected
//!   instead of mis-addressed.
//!
//! The `golden_digests_are_stable` test pins known digests; if it fails,
//! you changed the format — bump the version, don't update the pin in
//! place without doing so.

/// Incremental 128-bit FNV-1a hasher.
#[derive(Debug, Clone, Copy)]
pub struct Fnv128 {
    state: u128,
}

const FNV128_OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
const FNV128_PRIME: u128 = 0x0000000001000000000000000000013b;

impl Fnv128 {
    /// A fresh hasher at the FNV-1a offset basis.
    pub fn new() -> Self {
        Self { state: FNV128_OFFSET }
    }

    /// Absorbs one byte.
    #[inline]
    pub fn write_u8(&mut self, b: u8) {
        self.state ^= b as u128;
        self.state = self.state.wrapping_mul(FNV128_PRIME);
    }

    /// Absorbs a little-endian `u64`.
    #[inline]
    pub fn write_u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.write_u8(b);
        }
    }

    /// Absorbs a `usize` (widened to `u64` for layout independence).
    #[inline]
    pub fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    /// Absorbs the exact IEEE-754 bit pattern of `v`, normalizing the two
    /// zero representations (`-0.0` hashes like `0.0`).
    #[inline]
    pub fn write_f64(&mut self, v: f64) {
        let v = if v == 0.0 { 0.0 } else { v };
        self.write_u64(v.to_bits());
    }

    /// Absorbs a string as raw bytes (length-prefixed against ambiguity).
    pub fn write_str(&mut self, s: &str) {
        self.write_usize(s.len());
        for b in s.as_bytes() {
            self.write_u8(*b);
        }
    }

    /// The 128-bit digest.
    pub fn finish(&self) -> u128 {
        self.state
    }
}

impl Default for Fnv128 {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_order_sensitive() {
        let mut a = Fnv128::new();
        a.write_u64(1);
        a.write_u64(2);
        let mut b = Fnv128::new();
        b.write_u64(2);
        b.write_u64(1);
        assert_ne!(a.finish(), b.finish());
        let mut c = Fnv128::new();
        c.write_u64(1);
        c.write_u64(2);
        assert_eq!(a.finish(), c.finish());
    }

    #[test]
    fn zero_normalization() {
        let mut a = Fnv128::new();
        a.write_f64(0.0);
        let mut b = Fnv128::new();
        b.write_f64(-0.0);
        assert_eq!(a.finish(), b.finish());
    }

    /// Golden digests: these exact values are what shipped stores are
    /// keyed by. A failure here means the hash definition changed — that
    /// invalidates every on-disk cache, so the store format version must
    /// be bumped in the same change.
    #[test]
    fn golden_digests_are_stable() {
        let mut h = Fnv128::new();
        h.write_u64(0x0123_4567_89ab_cdef);
        assert_eq!(h.finish(), 0x0619_098f_3865_9878_f047_fc45_23ab_fdfd);

        let mut h = Fnv128::new();
        h.write_str("reqisc");
        assert_eq!(h.finish(), 0x824e_63be_9a00_24ea_8335_ec8b_1dbe_04ee);

        // The matrix fingerprint used by the synthesis pool's content
        // addressing, pinned on CNOT.
        assert_eq!(
            crate::gates::cnot().fingerprint(),
            0xe7d2_16d7_50a4_5ea7_898c_3045_b778_890d
        );
    }

    #[test]
    fn distinct_inputs_distinct_digests() {
        let mut seen = std::collections::HashSet::new();
        for i in 0..1000u64 {
            let mut h = Fnv128::new();
            h.write_u64(i);
            assert!(seen.insert(h.finish()), "collision at {i}");
        }
    }
}
