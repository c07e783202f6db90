//! Seedable, deterministic pseudo-random number generation.
//!
//! Two standard generators: [`SplitMix64`] (used to expand a 64-bit
//! seed into generator state, and fine as a generator in its own right)
//! and [`Xoshiro256StarStar`] (the workhorse; 256-bit state, passes
//! BigCrush, ~1 ns per `next_u64`). Both are pure integer arithmetic,
//! so a given seed produces the same stream on every platform and every
//! run — the property the simulation traces and property tests rely on.
//!
//! Sampling is split rand-style into a minimal core trait
//! ([`RngCore`]) and an extension trait of provided samplers ([`Rng`]).

use std::ops::Range;

/// Golden-ratio increment used by SplitMix64.
const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// The minimal interface a generator must provide: a stream of
/// uniformly distributed 64-bit words.
pub trait RngCore {
    /// Returns the next 64-bit word of the stream.
    fn next_u64(&mut self) -> u64;
}

/// Provided sampling methods over any [`RngCore`].
pub trait Rng: RngCore {
    /// Uniform `f64` in `[0, 1)`, using the top 53 bits of one word.
    fn uniform_f64(&mut self) -> f64 {
        // 2^-53; the mantissa width of an f64.
        (self.next_u64() >> 11) as f64 * (1.0 / 9_007_199_254_740_992.0)
    }

    /// Uniform sample from a half-open range; works for `f64`, `i64`,
    /// `u64`, `u32`, and `usize` ranges (see [`SampleRange`]).
    fn range<T, S: SampleRange<T>>(&mut self, range: S) -> T
    where
        Self: Sized,
    {
        range.sample_from(self)
    }

    /// Bernoulli trial: `true` with probability `p`.
    fn chance(&mut self, p: f64) -> bool {
        self.uniform_f64() < p
    }
}

impl<T: RngCore + ?Sized> Rng for T {}

/// A range that knows how to sample itself uniformly from a generator —
/// the glue behind [`Rng::range`], mirroring `rand`'s `random_range`.
pub trait SampleRange<T> {
    /// Draws one uniform sample from the range.
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

impl SampleRange<f64> for Range<f64> {
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "empty f64 range");
        let u = (rng.next_u64() >> 11) as f64 * (1.0 / 9_007_199_254_740_992.0);
        let v = self.start + (self.end - self.start) * u;
        // Floating rounding can land exactly on `end`; fold it back.
        if v >= self.end {
            self.start
        } else {
            v
        }
    }
}

/// Unbiased-enough uniform integer below `span` via 128-bit
/// multiply-shift (Lemire's method without the rejection step; bias is
/// < 2^-64 per draw, irrelevant for testing and trace generation).
fn u64_below<R: RngCore + ?Sized>(rng: &mut R, span: u64) -> u64 {
    ((rng.next_u64() as u128 * span as u128) >> 64) as u64
}

macro_rules! int_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "empty integer range");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + u64_below(rng, span) as i128) as $t
            }
        }
    )*};
}

int_sample_range!(u32, u64, i32, i64, usize);

/// SplitMix64: Steele, Lea & Flood's 64-bit state splittable generator.
/// Primarily used to expand seeds into larger state, immune to the
/// "all-zero seed" pathologies of shift-register generators.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator whose stream is fully determined by `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }
}

impl RngCore for SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GOLDEN_GAMMA);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// xoshiro256\*\*: Blackman & Vigna's all-purpose 256-bit generator.
/// The workspace default — everything seeded goes through this type.
#[derive(Debug, Clone)]
pub struct Xoshiro256StarStar {
    s: [u64; 4],
}

impl Xoshiro256StarStar {
    /// Expands a 64-bit seed into the full 256-bit state via SplitMix64,
    /// as the xoshiro authors recommend.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        let mut s = [0u64; 4];
        for word in &mut s {
            *word = sm.next_u64();
        }
        // The all-zero state is a fixed point; SplitMix64 cannot emit
        // four consecutive zeros, but guard anyway for direct builders.
        if s == [0; 4] {
            s[0] = GOLDEN_GAMMA;
        }
        Xoshiro256StarStar { s }
    }
}

impl RngCore for Xoshiro256StarStar {
    fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = Xoshiro256StarStar::seed_from_u64(42);
        let mut b = Xoshiro256StarStar::seed_from_u64(42);
        let xs: Vec<u64> = (0..256).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..256).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys);
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Xoshiro256StarStar::seed_from_u64(1);
        let mut b = Xoshiro256StarStar::seed_from_u64(2);
        let xs: Vec<u64> = (0..32).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..32).map(|_| b.next_u64()).collect();
        assert_ne!(xs, ys);
    }

    #[test]
    fn splitmix_reference_vector() {
        // First three outputs for seed 0, from the public-domain
        // reference implementation (prng.di.unimi.it/splitmix64.c).
        let mut sm = SplitMix64::new(0);
        assert_eq!(sm.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(sm.next_u64(), 0x6E78_9E6A_A1B9_65F4);
        assert_eq!(sm.next_u64(), 0x06C4_5D18_8009_454F);
    }

    #[test]
    fn uniform_f64_in_unit_interval() {
        let mut r = Xoshiro256StarStar::seed_from_u64(7);
        for _ in 0..10_000 {
            let u = r.uniform_f64();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn range_respects_bounds() {
        let mut r = Xoshiro256StarStar::seed_from_u64(11);
        for _ in 0..10_000 {
            let v: i64 = r.range(-5i64..7);
            assert!((-5..7).contains(&v));
            let u: u32 = r.range(3u32..4);
            assert_eq!(u, 3, "singleton range");
            let f: f64 = r.range(f64::EPSILON..1.0);
            assert!((f64::EPSILON..1.0).contains(&f));
        }
    }

    #[test]
    fn range_covers_small_domain() {
        let mut r = Xoshiro256StarStar::seed_from_u64(13);
        let mut seen = [false; 6];
        for _ in 0..1000 {
            let v: usize = r.range(0usize..6);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s), "all 6 values hit: {seen:?}");
    }

    #[test]
    fn bernoulli_rate_tracks_p() {
        let mut r = Xoshiro256StarStar::seed_from_u64(37);
        let hits = (0..50_000).filter(|_| r.chance(0.3)).count();
        let rate = hits as f64 / 50_000.0;
        assert!((rate - 0.3).abs() < 0.01, "rate {rate} vs 0.3");
    }
}
