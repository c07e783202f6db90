//! Seeded input-trace generation.
//!
//! The paper obtained its simulation traces "as zero-mean Gaussian
//! sequences" (Sec. 5). This module reproduces that methodology with a
//! seedable RNG and a Box–Muller transform, quantizing to integers and
//! optionally clamping/offsetting to match each design's input domain
//! (e.g. GCD operands must be positive).

use spec_support::rng::{Rng, Xoshiro256StarStar};

/// A seeded Gaussian integer-trace generator.
///
/// # Example
///
/// ```
/// use hls_sim::trace::Gaussian;
/// let mut g = Gaussian::new(42, 0.0, 16.0);
/// let a = g.next_value();
/// let b = g.next_value();
/// // Deterministic per seed.
/// let mut g2 = Gaussian::new(42, 0.0, 16.0);
/// assert_eq!(a, g2.next_value());
/// assert_eq!(b, g2.next_value());
/// ```
#[derive(Debug)]
pub struct Gaussian {
    rng: Xoshiro256StarStar,
    mean: f64,
    sigma: f64,
    spare: Option<f64>,
}

impl Gaussian {
    /// Creates a generator with the given seed, mean, and standard
    /// deviation.
    pub fn new(seed: u64, mean: f64, sigma: f64) -> Self {
        Gaussian {
            rng: Xoshiro256StarStar::seed_from_u64(seed),
            mean,
            sigma,
            spare: None,
        }
    }

    /// Next Gaussian sample, rounded to the nearest integer.
    pub fn next_value(&mut self) -> i64 {
        let z = if let Some(s) = self.spare.take() {
            s
        } else {
            // Box–Muller. The literals are typed: without `rand`'s
            // generic return anchoring them, `-2.0 * u1.ln()` would be
            // an ambiguous {float}.
            let u1: f64 = self.rng.range(f64::EPSILON..1.0);
            let u2: f64 = self.rng.range(0.0_f64..1.0);
            let r: f64 = (-2.0_f64 * u1.ln()).sqrt();
            let theta = 2.0 * std::f64::consts::PI * u2;
            self.spare = Some(r * theta.sin());
            r * theta.cos()
        };
        (self.mean + self.sigma * z).round() as i64
    }

    /// Next strictly positive sample (magnitude, minimum 1).
    pub fn next_positive(&mut self) -> i64 {
        self.next_value().abs().max(1)
    }
}

/// Generates `n` input vectors for the named inputs, each value a
/// positive Gaussian magnitude in `[1, cap]` — the common shape for the
/// benchmark designs (loop counts and arithmetic operands).
pub fn positive_vectors(
    seed: u64,
    names: &[&str],
    sigma: f64,
    cap: i64,
    n: usize,
) -> Vec<Vec<(String, i64)>> {
    let mut g = Gaussian::new(seed, 0.0, sigma);
    (0..n)
        .map(|_| {
            names
                .iter()
                .map(|&name| (name.to_string(), g.next_positive().min(cap)))
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let a: Vec<i64> = {
            let mut g = Gaussian::new(7, 0.0, 10.0);
            (0..32).map(|_| g.next_value()).collect()
        };
        let b: Vec<i64> = {
            let mut g = Gaussian::new(7, 0.0, 10.0);
            (0..32).map(|_| g.next_value()).collect()
        };
        assert_eq!(a, b);
        let c: Vec<i64> = {
            let mut g = Gaussian::new(8, 0.0, 10.0);
            (0..32).map(|_| g.next_value()).collect()
        };
        assert_ne!(a, c, "different seeds differ");
    }

    #[test]
    fn roughly_zero_mean() {
        let mut g = Gaussian::new(1, 0.0, 100.0);
        let n = 20_000;
        let sum: i64 = (0..n).map(|_| g.next_value()).sum();
        let mean = sum as f64 / n as f64;
        assert!(mean.abs() < 5.0, "sample mean {mean} too far from 0");
    }

    #[test]
    fn roughly_unit_variance_scaling() {
        let mut g = Gaussian::new(2, 0.0, 50.0);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| g.next_value() as f64).collect();
        let var = samples.iter().map(|x| x * x).sum::<f64>() / n as f64;
        let sigma = var.sqrt();
        assert!((sigma - 50.0).abs() < 3.0, "sample σ {sigma} vs 50");
    }

    #[test]
    fn positive_and_bounded() {
        let mut g = Gaussian::new(3, 0.0, 40.0);
        for _ in 0..1000 {
            let v = g.next_positive();
            assert!(v >= 1);
        }
    }

    #[test]
    fn vectors_cover_all_names() {
        let vs = positive_vectors(11, &["x", "y"], 30.0, 255, 10);
        assert_eq!(vs.len(), 10);
        for v in &vs {
            assert_eq!(v.len(), 2);
            assert!(v.iter().all(|(_, val)| (1..=255).contains(val)));
        }
    }
}
