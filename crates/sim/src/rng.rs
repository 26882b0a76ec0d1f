//! Seeded randomness helpers.
//!
//! Every stochastic experiment in the paper ("we generate 500 workloads
//! with random task periods and execution times", §5.7) is reproduced
//! with explicit seeds so results are stable across runs and machines.
//!
//! The generator is a self-contained xoshiro256** (Blackman & Vigna)
//! seeded through SplitMix64, so the simulator carries no external
//! randomness dependency — important for the small-memory spirit and
//! for fully offline builds.

/// A deterministic random-number generator for experiments.
///
/// xoshiro256** with SplitMix64 seeding: (a) forces an explicit seed
/// and (b) provides the couple of sampling shapes the workload
/// generator needs without pulling distribution crates in.
#[derive(Clone, Debug)]
pub struct SimRng {
    s: [u64; 4],
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SimRng {
    /// Creates a generator from an explicit seed.
    pub fn seeded(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        SimRng { s }
    }

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

    /// Derives an independent child generator; used to give each
    /// workload its own stream so adding experiments never perturbs
    /// existing ones.
    pub fn derive(&mut self, salt: u64) -> SimRng {
        let s = self.next_u64();
        SimRng::seeded(s ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// A *stateless* per-index stream: the generator for `(seed,
    /// index)` is a pure function of both, independent of how many
    /// draws any other stream made. The fault clock uses this so the
    /// corruption decision for bus grant *k* never shifts when an
    /// unrelated subsystem adds or removes random draws.
    pub fn stream(seed: u64, index: u64) -> SimRng {
        SimRng::seeded(seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// Uniform integer in `[lo, hi]` (inclusive).
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn int_in(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "empty range");
        let span = (hi - lo).wrapping_add(1);
        if span == 0 {
            // Full u64 range.
            return self.next_u64();
        }
        // Fixed-point multiply maps [0, 2^64) onto [0, span) almost
        // uniformly — bias is < span/2^64, invisible at test scales.
        let wide = (self.next_u64() as u128) * (span as u128);
        lo + (wide >> 64) as u64
    }

    /// Uniform float in `[lo, hi)`.
    pub fn float_in(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo <= hi, "empty range");
        let unit = (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        lo + unit * (hi - lo)
    }

    /// Uniform index in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "empty choice set");
        self.int_in(0, n as u64 - 1) as usize
    }

    /// Bernoulli draw with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.float_in(0.0, 1.0) < p.clamp(0.0, 1.0)
    }

    /// Raw `u64`, for seeding foreign generators.
    pub fn raw(&mut self) -> u64 {
        self.next_u64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seeded(42);
        let mut b = SimRng::seeded(42);
        for _ in 0..100 {
            assert_eq!(a.raw(), b.raw());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::seeded(1);
        let mut b = SimRng::seeded(2);
        let same = (0..32).filter(|_| a.raw() == b.raw()).count();
        assert!(same < 4);
    }

    #[test]
    fn ranges_are_respected() {
        let mut r = SimRng::seeded(7);
        for _ in 0..1000 {
            let v = r.int_in(5, 9);
            assert!((5..=9).contains(&v));
            let f = r.float_in(0.1, 0.2);
            assert!((0.1..0.2).contains(&f));
            let i = r.index(3);
            assert!(i < 3);
        }
    }

    #[test]
    fn int_in_covers_endpoints() {
        let mut r = SimRng::seeded(13);
        let mut seen = [false; 5];
        for _ in 0..1000 {
            seen[(r.int_in(5, 9) - 5) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all of 5..=9 drawn: {seen:?}");
    }

    #[test]
    fn derive_is_deterministic_and_independent() {
        let mut root1 = SimRng::seeded(9);
        let mut root2 = SimRng::seeded(9);
        let mut c1 = root1.derive(3);
        let mut c2 = root2.derive(3);
        assert_eq!(c1.raw(), c2.raw());
    }

    #[test]
    fn chance_tracks_probability() {
        let mut r = SimRng::seeded(21);
        let hits = (0..10_000).filter(|_| r.chance(0.25)).count();
        assert!((2_000..3_000).contains(&hits), "hits = {hits}");
    }
}
