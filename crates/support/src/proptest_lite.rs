//! `proptest-lite`: seeded property-based testing without the
//! `proptest` crate.
//!
//! A [`Gen<T>`] pairs a generation function (driven by the workspace's
//! deterministic [`Xoshiro256StarStar`]) with a shrink function that
//! proposes strictly "smaller" variants of a failing value. Combinators
//! ([`range`], [`boolean`], [`vec_of`], [`one_of`], [`tuple2`],
//! [`recursive`], [`Gen::map`], …) compose generators the way
//! `proptest` strategies did, and the [`props!`](crate::props) macro
//! turns property functions into `#[test]` items.
//!
//! Runtime knobs (environment variables):
//!
//! * `SPEC_PROPTEST_CASES` — cases per property (default 64).
//! * `SPEC_PROPTEST_SEED` — base seed XORed into every property's
//!   per-name seed; replaying a reported seed reproduces a failure
//!   exactly.
//!
//! Shrinking is bounded (at most [`Config::max_shrink_steps`] property
//! re-executions) and implemented for the integer, boolean, vector, and
//! tuple generators; `map`/`one_of`/`recursive` values fall back to the
//! reported original. Failures panic with the case index, seed, and the
//! most-shrunk counterexample.

use crate::rng::{Rng, RngCore, Xoshiro256StarStar};
use std::fmt::Debug;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;

/// A composable value generator with an attached (possibly empty)
/// shrinker. Cloning is cheap: both halves are reference-counted.
pub struct Gen<T> {
    generate: Rc<dyn Fn(&mut Xoshiro256StarStar) -> T>,
    shrink: ShrinkFn<T>,
}

/// A reference-counted shrinking strategy: candidate smaller values for
/// a failing input.
type ShrinkFn<T> = Rc<dyn Fn(&T) -> Vec<T>>;

impl<T> Clone for Gen<T> {
    fn clone(&self) -> Self {
        Gen {
            generate: Rc::clone(&self.generate),
            shrink: Rc::clone(&self.shrink),
        }
    }
}

impl<T: 'static> Gen<T> {
    /// A generator from a raw sampling function, with no shrinker.
    pub fn new(f: impl Fn(&mut Xoshiro256StarStar) -> T + 'static) -> Self {
        Gen {
            generate: Rc::new(f),
            shrink: Rc::new(|_| Vec::new()),
        }
    }

    /// Attaches a shrinker proposing smaller variants of a value.
    pub fn with_shrink(self, s: impl Fn(&T) -> Vec<T> + 'static) -> Self {
        Gen {
            generate: self.generate,
            shrink: Rc::new(s),
        }
    }

    /// Draws one value.
    pub fn generate(&self, rng: &mut Xoshiro256StarStar) -> T {
        (self.generate)(rng)
    }

    /// Proposes shrink candidates for `value` (possibly none).
    pub fn shrink(&self, value: &T) -> Vec<T> {
        (self.shrink)(value)
    }

    /// Applies `f` to every generated value. The mapped generator does
    /// not shrink (there is no inverse to map candidates back through);
    /// shrinking still happens component-wise inside tuples and vecs
    /// *below* the map.
    pub fn map<U: 'static>(self, f: impl Fn(T) -> U + 'static) -> Gen<U> {
        let inner = self.generate;
        Gen::new(move |rng| f(inner(rng)))
    }
}

/// Always generates a clone of `value`.
pub fn just<T: Clone + 'static>(value: T) -> Gen<T> {
    Gen::new(move |_| value.clone())
}

/// Uniform boolean; `true` shrinks to `false`.
pub fn boolean() -> Gen<bool> {
    Gen::new(|rng| rng.next_u64() & 1 == 1)
        .with_shrink(|&v| if v { vec![false] } else { Vec::new() })
}

/// Integer types usable with [`range`].
pub trait GenInt: Copy + PartialOrd + Debug + 'static {
    /// Uniform sample in `[lo, hi)`.
    fn sample(rng: &mut Xoshiro256StarStar, lo: Self, hi: Self) -> Self;
    /// Candidates strictly between `lo` and `v`, ordered most-shrunk
    /// first (toward `lo`).
    fn shrink_toward(lo: Self, v: Self) -> Vec<Self>;
}

macro_rules! gen_int {
    ($($t:ty),*) => {$(
        impl GenInt for $t {
            fn sample(rng: &mut Xoshiro256StarStar, lo: Self, hi: Self) -> Self {
                rng.range(lo..hi)
            }
            fn shrink_toward(lo: Self, v: Self) -> Vec<Self> {
                let mut out = Vec::new();
                if v == lo {
                    return out;
                }
                out.push(lo);
                let mid = lo + (v - lo) / 2;
                if mid != lo && mid != v {
                    out.push(mid);
                }
                let prev = v - 1;
                if prev != lo && prev != mid {
                    out.push(prev);
                }
                out
            }
        }
    )*};
}

gen_int!(u32, u64, i32, i64, usize);

/// Uniform integer in the half-open range, shrinking toward the low
/// bound.
pub fn range<T: GenInt>(r: Range<T>) -> Gen<T> {
    let (lo, hi) = (r.start, r.end);
    Gen::new(move |rng| T::sample(rng, lo, hi)).with_shrink(move |&v| T::shrink_toward(lo, v))
}

/// Uniform `f64` in `[lo, hi)`. Floats do not shrink.
pub fn f64_range(r: Range<f64>) -> Gen<f64> {
    let (lo, hi) = (r.start, r.end);
    Gen::new(move |rng| rng.range(lo..hi))
}

/// Picks one of the given generators uniformly per draw. Choice is not
/// tracked, so `one_of` values shrink only via their components.
pub fn one_of<T: 'static>(gens: Vec<Gen<T>>) -> Gen<T> {
    assert!(!gens.is_empty(), "one_of needs at least one generator");
    Gen::new(move |rng| {
        let i: usize = rng.range(0usize..gens.len());
        gens[i].generate(rng)
    })
}

/// Vector of `elem` draws with length uniform in `len` (half-open).
/// Shrinks by dropping one element at a time (respecting the minimum
/// length) and by shrinking individual elements in place, bounded to
/// [`MAX_SHRINK_CANDIDATES`] proposals per round.
pub fn vec_of<T: Clone + 'static>(elem: Gen<T>, len: Range<usize>) -> Gen<Vec<T>> {
    let (lo, hi) = (len.start, len.end);
    assert!(lo < hi, "empty length range");
    let gen_elem = elem.clone();
    Gen::new(move |rng| {
        let n: usize = rng.range(lo..hi);
        (0..n).map(|_| gen_elem.generate(rng)).collect()
    })
    .with_shrink(move |v: &Vec<T>| {
        let mut out: Vec<Vec<T>> = Vec::new();
        // Halve the length first (largest structural step), then drop
        // single elements, then shrink elements pointwise.
        if v.len() >= lo + 2 {
            let half = lo.max(v.len() / 2);
            out.push(v[..half].to_vec());
        }
        for i in 0..v.len() {
            if v.len() > lo {
                let mut smaller = v.clone();
                smaller.remove(i);
                out.push(smaller);
            }
        }
        'outer: for i in 0..v.len() {
            for cand in elem.shrink(&v[i]) {
                let mut variant = v.clone();
                variant[i] = cand;
                out.push(variant);
                if out.len() >= MAX_SHRINK_CANDIDATES {
                    break 'outer;
                }
            }
        }
        out.truncate(MAX_SHRINK_CANDIDATES);
        out
    })
}

/// Cap on shrink proposals per round, keeping shrinking bounded even
/// for large vectors of shrinkable elements.
pub const MAX_SHRINK_CANDIDATES: usize = 24;

/// Pair generator; shrinks each component with the other held fixed.
pub fn tuple2<A, B>(a: Gen<A>, b: Gen<B>) -> Gen<(A, B)>
where
    A: Clone + 'static,
    B: Clone + 'static,
{
    let (ga, gb) = (a.clone(), b.clone());
    Gen::new(move |rng| (ga.generate(rng), gb.generate(rng))).with_shrink(move |(x, y)| {
        let mut out: Vec<(A, B)> = a.shrink(x).into_iter().map(|x2| (x2, y.clone())).collect();
        out.extend(b.shrink(y).into_iter().map(|y2| (x.clone(), y2)));
        out.truncate(MAX_SHRINK_CANDIDATES);
        out
    })
}

/// Triple generator; shrinks each component with the others held fixed.
pub fn tuple3<A, B, C>(a: Gen<A>, b: Gen<B>, c: Gen<C>) -> Gen<(A, B, C)>
where
    A: Clone + 'static,
    B: Clone + 'static,
    C: Clone + 'static,
{
    let (ga, gb, gc) = (a.clone(), b.clone(), c.clone());
    Gen::new(move |rng| (ga.generate(rng), gb.generate(rng), gc.generate(rng))).with_shrink(
        move |(x, y, z)| {
            let mut out: Vec<(A, B, C)> = a
                .shrink(x)
                .into_iter()
                .map(|x2| (x2, y.clone(), z.clone()))
                .collect();
            out.extend(b.shrink(y).into_iter().map(|y2| (x.clone(), y2, z.clone())));
            out.extend(c.shrink(z).into_iter().map(|z2| (x.clone(), y.clone(), z2)));
            out.truncate(MAX_SHRINK_CANDIDATES);
            out
        },
    )
}

/// Recursive generator in the style of `proptest`'s `prop_recursive`:
/// `branch` builds a composite generator from an "inner" generator, and
/// the result nests at most `depth` levels before bottoming out at
/// `leaf`. Each level is a 50/50 coin between stopping and recursing,
/// so deep values are exponentially rarer than shallow ones.
pub fn recursive<T: 'static>(
    depth: u32,
    leaf: Gen<T>,
    branch: impl Fn(Gen<T>) -> Gen<T>,
) -> Gen<T> {
    let mut g = leaf.clone();
    for _ in 0..depth {
        g = one_of(vec![leaf.clone(), branch(g)]);
    }
    g
}

/// Runner configuration, normally read from the environment.
#[derive(Debug, Clone)]
pub struct Config {
    /// Number of generated cases per property.
    pub cases: u32,
    /// Base seed XORed into each property's name-derived seed.
    pub seed: u64,
    /// Upper bound on property re-executions while shrinking.
    pub max_shrink_steps: u32,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            cases: env_u64("SPEC_PROPTEST_CASES", 64) as u32,
            seed: env_u64("SPEC_PROPTEST_SEED", 0),
            max_shrink_steps: env_u64("SPEC_PROPTEST_SHRINK_STEPS", 256) as u32,
        }
    }
}

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// FNV-1a, so each property gets a distinct deterministic seed stream.
fn fnv1a(s: &str) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325_u64;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// A falsified property: the original counterexample, its most-shrunk
/// form, and where in the run it appeared.
#[derive(Debug)]
pub struct Failure<T> {
    /// 0-based index of the failing case.
    pub case: u32,
    /// Seed that reproduces the run (pass via `SPEC_PROPTEST_SEED`).
    pub seed: u64,
    /// The value as generated.
    pub original: T,
    /// The smallest failing value shrinking found (== `original` when
    /// nothing smaller failed).
    pub shrunk: T,
    /// Property executions spent shrinking.
    pub shrink_steps: u32,
    /// Panic payload of the shrunk failure.
    pub message: String,
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Runs `prop` against up to `config.cases` generated values and
/// returns the first (shrunk) failure, or `None` if every case passes.
/// [`run`] is the panicking wrapper used by
/// [`props!`](crate::props).
pub fn check<T: Clone + Debug + 'static>(
    name: &str,
    config: &Config,
    gen: &Gen<T>,
    prop: impl Fn(&T),
) -> Option<Failure<T>> {
    let seed = fnv1a(name) ^ config.seed;
    let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
    let fails = |value: &T| catch_unwind(AssertUnwindSafe(|| prop(value))).err();
    for case in 0..config.cases {
        let original = gen.generate(&mut rng);
        let Some(first_payload) = fails(&original) else {
            continue;
        };
        // Greedy bounded shrink: take the first candidate that still
        // fails, restart from it, stop when none fail or budget is out.
        let mut shrunk = original.clone();
        let mut message = panic_message(first_payload);
        let mut steps = 0u32;
        'shrinking: while steps < config.max_shrink_steps {
            let mut progressed = false;
            for candidate in gen.shrink(&shrunk) {
                steps += 1;
                if let Some(payload) = fails(&candidate) {
                    shrunk = candidate;
                    message = panic_message(payload);
                    progressed = true;
                    break;
                }
                if steps >= config.max_shrink_steps {
                    break 'shrinking;
                }
            }
            if !progressed {
                break;
            }
        }
        return Some(Failure {
            case,
            seed,
            original,
            shrunk,
            shrink_steps: steps,
            message,
        });
    }
    None
}

/// Runs a property with the environment [`Config`], panicking with a
/// replayable report on failure. This is what
/// [`props!`](crate::props) expands to.
pub fn run<T: Clone + Debug + 'static>(name: &str, gen: Gen<T>, prop: impl Fn(&T)) {
    let config = Config::default();
    if let Some(f) = check(name, &config, &gen, prop) {
        // `f.seed` is the name-derived stream seed; the value a user
        // must export to replay it is the *base* seed it was XORed
        // with, i.e. `config.seed` (0 unless already overridden).
        panic!(
            "property '{name}' falsified at case {case}/{cases} (stream seed {seed:#018x}; \
             rerun with SPEC_PROPTEST_SEED={base})\n  original: {original:?}\n  shrunk \
             ({steps} steps): {shrunk:?}\n  cause: {message}",
            case = f.case,
            cases = config.cases,
            seed = f.seed,
            base = config.seed,
            original = f.original,
            steps = f.shrink_steps,
            shrunk = f.shrunk,
            message = f.message,
        );
    }
}

/// Declares property tests. Each `fn name(pat in gen, ...) { body }`
/// item becomes a `#[test]` that runs `body` against generated values
/// (up to three bindings; combine with [`tuple2`]/[`tuple3`] beyond
/// that). Use plain `assert!`/`assert_eq!` in bodies.
#[macro_export]
macro_rules! props {
    () => {};
    ($(#[$m:meta])* fn $name:ident($a:ident in $ga:expr $(,)?) $body:block $($rest:tt)*) => {
        $(#[$m])*
        #[test]
        fn $name() {
            $crate::proptest_lite::run(stringify!($name), $ga, |__case: &_| {
                let $a = __case.clone();
                $body
            });
        }
        $crate::props! { $($rest)* }
    };
    ($(#[$m:meta])* fn $name:ident($a:ident in $ga:expr, $b:ident in $gb:expr $(,)?) $body:block $($rest:tt)*) => {
        $(#[$m])*
        #[test]
        fn $name() {
            $crate::proptest_lite::run(
                stringify!($name),
                $crate::proptest_lite::tuple2($ga, $gb),
                |__case: &_| {
                    let ($a, $b) = __case.clone();
                    $body
                },
            );
        }
        $crate::props! { $($rest)* }
    };
    ($(#[$m:meta])* fn $name:ident($a:ident in $ga:expr, $b:ident in $gb:expr, $c:ident in $gc:expr $(,)?) $body:block $($rest:tt)*) => {
        $(#[$m])*
        #[test]
        fn $name() {
            $crate::proptest_lite::run(
                stringify!($name),
                $crate::proptest_lite::tuple3($ga, $gb, $gc),
                |__case: &_| {
                    let ($a, $b, $c) = __case.clone();
                    $body
                },
            );
        }
        $crate::props! { $($rest)* }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_config() -> Config {
        Config {
            cases: 128,
            seed: 0,
            max_shrink_steps: 512,
        }
    }

    #[test]
    fn passing_property_reports_no_failure() {
        let cfg = test_config();
        let gen = range(0i64..100);
        assert!(check("always_true", &cfg, &gen, |v| assert!(*v >= 0)).is_none());
    }

    #[test]
    fn integer_shrinks_to_boundary() {
        // Property: v < 60. Smallest failing value in 0..100 is 60.
        let cfg = test_config();
        let gen = range(0i64..100);
        let f = check("lt_sixty", &cfg, &gen, |v| assert!(*v < 60))
            .expect("60..100 occurs within 128 cases");
        assert_eq!(f.shrunk, 60, "shrinker converges to the boundary");
        assert!(f.shrink_steps > 0);
    }

    #[test]
    fn vec_shrinks_to_minimal_witness() {
        // Property: no element exceeds 50. A minimal counterexample is
        // a single-element vector [51].
        let cfg = test_config();
        let gen = vec_of(range(0i64..100), 0..8);
        let f = check("all_small", &cfg, &gen, |v: &Vec<i64>| {
            assert!(v.iter().all(|&x| x <= 50));
        })
        .expect("a large element occurs within 128 cases");
        assert_eq!(
            f.shrunk.len(),
            1,
            "dropped unrelated elements: {:?}",
            f.shrunk
        );
        assert_eq!(
            f.shrunk[0], 51,
            "element shrunk to boundary: {:?}",
            f.shrunk
        );
    }

    #[test]
    fn tuple_shrinks_componentwise() {
        let cfg = test_config();
        let gen = tuple2(range(0i64..40), range(0i64..40));
        let f = check("sum_small", &cfg, &gen, |&(a, b)| assert!(a + b < 30))
            .expect("a + b >= 30 occurs within 128 cases");
        let (a, b) = f.shrunk;
        assert_eq!(a + b, 30, "minimal failing sum: ({a}, {b})");
    }

    #[test]
    fn failures_are_reproducible() {
        let cfg = test_config();
        let gen = range(0i64..100);
        let f1 = check("repro", &cfg, &gen, |v| assert!(*v < 60)).expect("fails");
        let f2 = check("repro", &cfg, &gen, |v| assert!(*v < 60)).expect("fails");
        assert_eq!(f1.case, f2.case);
        assert_eq!(f1.original, f2.original);
        assert_eq!(f1.shrunk, f2.shrunk);
    }

    #[test]
    fn distinct_names_get_distinct_streams() {
        let cfg = test_config();
        let gen = range(0i64..1_000_000);
        let mut rng_a = Xoshiro256StarStar::seed_from_u64(fnv1a("name_a") ^ cfg.seed);
        let mut rng_b = Xoshiro256StarStar::seed_from_u64(fnv1a("name_b") ^ cfg.seed);
        assert_ne!(gen.generate(&mut rng_a), gen.generate(&mut rng_b));
    }

    #[test]
    fn shrinking_respects_step_budget() {
        let cfg = Config {
            cases: 64,
            seed: 0,
            max_shrink_steps: 5,
        };
        let gen = vec_of(range(0i64..1000), 0..16);
        if let Some(f) = check("budget", &cfg, &gen, |v: &Vec<i64>| {
            assert!(v.iter().all(|&x| x < 500));
        }) {
            assert!(f.shrink_steps <= 5);
        }
    }

    #[test]
    fn recursive_bottoms_out() {
        #[derive(Debug, Clone)]
        enum T {
            Leaf,
            Node(Box<T>),
        }
        fn depth(t: &T) -> u32 {
            match t {
                T::Leaf => 0,
                T::Node(i) => 1 + depth(i),
            }
        }
        let gen = recursive(6, just(T::Leaf), |inner| {
            inner.map(|t| T::Node(Box::new(t)))
        });
        let mut rng = Xoshiro256StarStar::seed_from_u64(99);
        for _ in 0..200 {
            assert!(depth(&gen.generate(&mut rng)) <= 6);
        }
    }

    props! {
        /// The macro itself works end-to-end with multiple bindings.
        fn macro_smoke(a in range(0i64..10), b in range(0i64..10), flip in boolean()) {
            let (x, y) = if flip { (a, b) } else { (b, a) };
            assert_eq!(x + y, a + b);
        }
    }
}
