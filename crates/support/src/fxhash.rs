//! FxHash: the multiply-xor hasher used by rustc, reimplemented in-repo.
//!
//! The workspace's hot paths (BDD hash-consing, instance interning,
//! memo caches) are dominated by hashing small keys — a few machine
//! words each. std's default SipHash-1-3 is keyed and DoS-resistant but
//! several times slower than necessary for trusted, in-process keys.
//! FxHash folds each 8-byte word into the state with one rotate, one
//! xor, and one multiply by a constant derived from the golden ratio —
//! the same scheme as the `rustc-hash` crate (which PR-1's hermetic
//! build policy forbids depending on).
//!
//! Determinism matters here as much as speed: the hasher is a pure
//! function of the input bytes with no per-process random seed, so any
//! iteration-order-sensitive consumer stays reproducible across runs
//! and platforms (64-bit, both endiannesses hash identically because
//! input is consumed through `u64::from_le_bytes`). Reference vectors
//! are pinned in the tests below.

use std::hash::{BuildHasherDefault, Hasher};

/// `π`-free golden-ratio constant: `2^64 / φ`, the multiplier that
/// scrambles state bits after each xor (identical to rustc's).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;
const ROTATE: u32 = 5;

/// A `HashMap` keyed with [`FxHasher`].
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

/// A `HashSet` keyed with [`FxHasher`].
pub type FxHashSet<T> = std::collections::HashSet<T, FxBuildHasher>;

/// `BuildHasher` producing [`FxHasher`]s (zero-sized, `Default`).
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// The multiply-xor hasher. One word of state; each written word costs
/// a rotate, xor, and multiply.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(ROTATE) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add_to_hash(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            self.add_to_hash(u64::from_le_bytes(tail));
            // Length-extension guard for the padded tail: distinguish
            // e.g. [1] from [1, 0].
            self.add_to_hash(rest.len() as u64);
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_u128(&mut self, i: u128) {
        self.add_to_hash(i as u64);
        self.add_to_hash((i >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// Hashes a byte slice with [`FxHasher`] — the primitive the reference
/// vectors pin down.
pub fn hash_bytes(bytes: &[u8]) -> u64 {
    let mut h = FxHasher::default();
    h.write(bytes);
    h.finish()
}

// ---------------------------------------------------------------------------
// Stable 128-bit content hashing
// ---------------------------------------------------------------------------

/// First-lane word scrambler (odd, from the splitmix64 constant family).
const MIX_LO: u64 = 0xbf58_476d_1ce4_e5b9;
/// Second-lane word scrambler (odd, distinct from [`MIX_LO`]).
const MIX_HI: u64 = 0x94d0_49bb_1331_11eb;
/// 64-bit golden ratio; seeds the two lanes apart from each other.
const LANE_SPLIT: u64 = 0x9e37_79b9_7f4a_7c15;

/// The splitmix64 finalizer: an invertible full-avalanche mix of one
/// word (identical to the one inside [`crate::rng`]'s SplitMix64).
#[inline]
fn mix64(x: u64) -> u64 {
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(MIX_LO);
    z = (z ^ (z >> 27)).wrapping_mul(MIX_HI);
    z ^ (z >> 31)
}

/// Stable 128-bit hasher for word streams.
///
/// Unlike [`FxHasher`] — whose job is to index in-process hash tables
/// where a collision only costs a probe — this hasher's output is used
/// as a *content identity*: the scheduler keys its state-fold index on
/// the 128-bit hash of a signature's token stream, treating equal
/// hashes as equal states. That demands real avalanche, so every word
/// passes through the (invertible, full-avalanche) splitmix64 finalizer
/// in each of two independently seeded lanes, and the finish step folds
/// in the stream length to kill extension collisions. Like `FxHasher`
/// it is a pure function of the input words: no per-process seed, same
/// value on every platform, pinned by reference vectors below.
#[derive(Debug, Clone, Copy)]
pub struct Fx128Hasher {
    lo: u64,
    hi: u64,
    len: u64,
}

impl Default for Fx128Hasher {
    fn default() -> Self {
        Fx128Hasher {
            lo: 0,
            hi: LANE_SPLIT,
            len: 0,
        }
    }
}

impl Fx128Hasher {
    /// Creates a hasher with both lanes at their seed state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one word into both lanes.
    #[inline]
    pub fn write_u64(&mut self, word: u64) {
        self.lo = mix64(self.lo ^ word.wrapping_mul(MIX_LO));
        self.hi = mix64(self.hi ^ word.wrapping_mul(MIX_HI));
        self.len = self.len.wrapping_add(1);
    }

    /// Folds one `u32` in (widened; occupies a full stream position).
    #[inline]
    pub fn write_u32(&mut self, word: u32) {
        self.write_u64(word as u64);
    }

    /// Finishes the stream: length-fold plus one last cross-lane mix.
    #[inline]
    pub fn finish128(&self) -> u128 {
        let a = mix64(self.lo ^ self.len);
        let b = mix64(self.hi ^ self.len.rotate_left(32) ^ a);
        ((b as u128) << 64) | a as u128
    }
}

/// Hashes a word slice to 128 bits — the one-shot form of
/// [`Fx128Hasher`].
pub fn hash128_words(words: &[u64]) -> u128 {
    let mut h = Fx128Hasher::new();
    for &w in words {
        h.write_u64(w);
    }
    h.finish128()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    /// Committed reference vectors: these exact outputs must hold on
    /// every platform (the hasher reads input little-endian and uses no
    /// per-process seed). A change here is a silent break of every
    /// consumer that persists or compares hash-ordered artifacts.
    #[test]
    fn reference_vectors() {
        let cases: &[(&[u8], u64)] = &[
            (b"", 0),
            (b"a", 0x7fb9_150e_5f1b_3601),
            (b"abc", 0xd135_491f_215f_019a),
            (b"wavesched", 0x2827_d44f_bfa0_e1a2),
            (b"0123456789abcdef", 0x0ef6_021b_7f61_a45b),
        ];
        for (input, want) in cases {
            assert_eq!(
                hash_bytes(input),
                *want,
                "reference vector for {:?}",
                String::from_utf8_lossy(input)
            );
        }
    }

    /// Word-write reference vectors (the path `#[derive(Hash)]` integer
    /// fields take).
    #[test]
    fn word_reference_vectors() {
        let mut h = FxHasher::default();
        h.write_u64(0);
        assert_eq!(h.finish(), 0);
        let mut h = FxHasher::default();
        h.write_u64(1);
        assert_eq!(h.finish(), 0x517c_c1b7_2722_0a95);
        let mut h = FxHasher::default();
        h.write_u32(7);
        h.write_u32(9);
        assert_eq!(h.finish(), 0x899b_8573_6757_f606);
    }

    #[test]
    fn deterministic_across_builders() {
        let b = FxBuildHasher::default();
        let x = b.hash_one((42u64, "key"));
        let y = FxBuildHasher::default().hash_one((42u64, "key"));
        assert_eq!(x, y);
    }

    #[test]
    fn map_and_set_work() {
        let mut m: FxHashMap<(u32, u32), u32> = FxHashMap::default();
        for i in 0..1000u32 {
            m.insert((i, i + 1), i);
        }
        assert_eq!(m.len(), 1000);
        assert_eq!(m[&(37, 38)], 37);
        let s: FxHashSet<u64> = (0..100u64).collect();
        assert!(s.contains(&99) && !s.contains(&100));
    }

    #[test]
    fn distinct_tails_hash_differently() {
        assert_ne!(hash_bytes(b"\x01"), hash_bytes(b"\x01\x00"));
        assert_ne!(hash_bytes(b"\x01\x00"), hash_bytes(b"\x00\x01"));
    }

    /// Committed 128-bit reference vectors: platform-stable, no
    /// per-process seed. The fold index persists equality decisions on
    /// these values, so a change here silently re-partitions every STG.
    #[test]
    fn fx128_reference_vectors() {
        let cases: &[(&[u64], u128)] = &[
            (&[], 0xe220a8397b1dcdaf0000000000000000),
            (&[0], 0xbfc41210c3dae8a85692161d100b05e5),
            (&[1], 0xb8ebbc79214a38a03d3d13ca9fddcd1c),
            (&[1, 2, 3], 0x48d17d801a22a80abbf4bc4a43a4e718),
            (&[u64::MAX], 0xabe3dc73ab20967c44a05696e8005dd1),
        ];
        for (input, want) in cases {
            assert_eq!(hash128_words(input), *want, "vector for {input:?}");
        }
    }

    /// Stream length is folded in: a trailing zero word is not an
    /// extension of the shorter stream, and incremental == one-shot.
    #[test]
    fn fx128_length_and_incremental() {
        assert_ne!(hash128_words(&[1]), hash128_words(&[1, 0]));
        assert_ne!(hash128_words(&[0]), hash128_words(&[]));
        let mut h = Fx128Hasher::new();
        h.write_u64(1);
        h.write_u32(2);
        h.write_u64(3);
        assert_eq!(h.finish128(), hash128_words(&[1, 2, 3]));
    }

    /// Sanity: single-word inputs avalanche into distinct halves (no
    /// two of the first 4k words share either 64-bit half).
    #[test]
    fn fx128_halves_distinct() {
        let mut los = FxHashSet::default();
        let mut his = FxHashSet::default();
        for w in 0..4096u64 {
            let h = hash128_words(&[w]);
            assert!(los.insert(h as u64), "lo collision at {w}");
            assert!(his.insert((h >> 64) as u64), "hi collision at {w}");
        }
    }

    #[test]
    fn spreads_sequential_keys() {
        // Sanity: sequential small keys should not collide in the low
        // bits a HashMap actually indexes with.
        let b = FxBuildHasher::default();
        let mut low7 = FxHashSet::default();
        for i in 0..128u64 {
            low7.insert(b.hash_one(i) & 127);
        }
        assert!(low7.len() > 96, "low bits too clustered: {}", low7.len());
    }
}
