//! Deterministic random number generation.
//!
//! Experiments must be exactly reproducible across runs, platforms, and crate
//! upgrades, so the simulator carries its own small PRNG (xoshiro256**
//! seeded through SplitMix64) instead of depending on any external generator's
//! stream stability. The API mirrors the pieces of `rand` the workspace needs:
//! uniform ints/floats, ranges, Bernoulli draws, and a handful of
//! heavy-tailed distributions used by the page-corpus generator.

/// A seeded, splittable PRNG (xoshiro256**).
#[derive(Debug, Clone)]
pub struct Rng {
    s: [u64; 4],
}

/// SplitMix64's finalizer over `a ^ b·φ`: a stable, well-mixed hash of a
/// `(seed, id)` pair, used wherever a value must be a pure function of a
/// seed and an index (page tokens, crawl and client derivations).
/// `#[inline]` because page generation calls it per dynamic URL from
/// another crate.
#[inline]
pub fn mix(a: u64, b: u64) -> u64 {
    let mut x = a ^ b.wrapping_mul(0x9E3779B97F4A7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

/// SplitMix64 step, used for seeding and for deriving child seeds.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    mix(*state, 0)
}

impl Rng {
    /// Create a generator from a 64-bit seed. Equal seeds yield equal streams.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Rng { s }
    }

    /// Derive an independent child generator from this one's seed material and
    /// a stream label. Children with different labels have uncorrelated
    /// streams; deriving does not disturb the parent's stream.
    pub fn derive(&self, label: u64) -> Rng {
        // Mix the label through SplitMix64 against the current state so that
        // derive(a) != derive(b) even when the parent has not been stepped.
        let mut sm = self.s[0] ^ self.s[2].rotate_left(17) ^ label.wrapping_mul(0x9E3779B97F4A7C15);
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Rng { s }
    }

    /// Next raw 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
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

    /// Uniform in `[0, 1)` with 53 bits of precision.
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, n)`. `n` must be nonzero.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0)");
        // Lemire's unbiased bounded generation.
        let mut x = self.next_u64();
        let mut m = (x as u128) * (n as u128);
        let mut l = m as u64;
        if l < n {
            let t = n.wrapping_neg() % n;
            while l < t {
                x = self.next_u64();
                m = (x as u128) * (n as u128);
                l = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform integer in `[lo, hi)`.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range {lo}..{hi}");
        lo + self.below(hi - lo)
    }

    /// Uniform usize in `[lo, hi)`.
    pub fn range_usize(&mut self, lo: usize, hi: usize) -> usize {
        self.range_u64(lo as u64, hi as u64) as usize
    }

    /// Uniform float in `[lo, hi)`.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + self.f64() * (hi - lo)
    }

    /// Bernoulli draw: `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// Pick a uniformly random element of a non-empty slice.
    pub fn pick<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        assert!(!xs.is_empty(), "pick from empty slice");
        &xs[self.range_usize(0, xs.len())]
    }

    /// Standard normal via Box–Muller (one value per call; the pair's second
    /// value is discarded to keep the stream position simple to reason about).
    pub fn normal(&mut self) -> f64 {
        let u1 = (1.0 - self.f64()).max(f64::MIN_POSITIVE); // avoid ln(0)
        let u2 = self.f64();
        (-2.0 * u1.ln()).sqrt() * (core::f64::consts::TAU * u2).cos()
    }

    /// Log-normal with the given median and sigma of the underlying normal.
    /// Web object sizes and CPU costs are classically log-normal.
    pub fn lognormal(&mut self, median: f64, sigma: f64) -> f64 {
        median * (sigma * self.normal()).exp()
    }

    /// Zipf-distributed rank in `[0, n)` with exponent `s`, by inverse CDF
    /// over precomputed weights. Suitable for small `n` (domain popularity).
    pub fn zipf(&mut self, n: usize, s: f64) -> usize {
        assert!(n > 0);
        let total: f64 = (1..=n).map(|k| 1.0 / (k as f64).powf(s)).sum();
        let mut target = self.f64() * total;
        for k in 1..=n {
            target -= 1.0 / (k as f64).powf(s);
            if target <= 0.0 {
                return k - 1;
            }
        }
        n - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_streams() {
        let mut a = Rng::new(42);
        let mut b = Rng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = Rng::new(43);
        assert_ne!(Rng::new(42).next_u64(), c.next_u64());
    }

    #[test]
    fn derive_is_independent_and_stable() {
        let parent = Rng::new(7);
        let mut c1 = parent.derive(1);
        let mut c2 = parent.derive(2);
        let mut c1_again = parent.derive(1);
        assert_eq!(c1.next_u64(), c1_again.next_u64());
        assert_ne!(c1.next_u64(), c2.next_u64());
    }

    #[test]
    fn below_is_in_range_and_covers() {
        let mut rng = Rng::new(1);
        let mut seen = [false; 7];
        for _ in 0..1000 {
            let v = rng.below(7) as usize;
            assert!(v < 7);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues hit in 1000 draws");
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = Rng::new(2);
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let v = rng.f64();
            assert!((0.0..1.0).contains(&v));
            sum += v;
        }
        let mean = sum / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean} far from 0.5");
    }

    #[test]
    fn chance_extremes() {
        let mut rng = Rng::new(3);
        for _ in 0..100 {
            assert!(!rng.chance(0.0));
            assert!(rng.chance(1.0));
        }
    }

    #[test]
    fn normal_moments() {
        let mut rng = Rng::new(5);
        let n = 20_000;
        let (mut sum, mut sq) = (0.0, 0.0);
        for _ in 0..n {
            let v = rng.normal();
            sum += v;
            sq += v * v;
        }
        let mean = sum / n as f64;
        let var = sq / n as f64 - mean * mean;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn lognormal_median() {
        let mut rng = Rng::new(6);
        let mut xs: Vec<f64> = (0..9999).map(|_| rng.lognormal(100.0, 0.8)).collect();
        xs.sort_by(f64::total_cmp);
        let med = xs[xs.len() / 2];
        assert!((med / 100.0 - 1.0).abs() < 0.1, "median {med}");
    }

    #[test]
    fn zipf_is_skewed_toward_low_ranks() {
        let mut rng = Rng::new(8);
        let mut counts = [0u32; 10];
        for _ in 0..10_000 {
            counts[rng.zipf(10, 1.0)] += 1;
        }
        assert!(counts[0] > counts[4], "rank 0 should dominate: {counts:?}");
        assert!(counts[0] > counts[9] * 3);
    }
}
