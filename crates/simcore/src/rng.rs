//! Deterministic random number generation.
//!
//! The simulator never touches OS entropy: every stream of randomness is a
//! pure function of a user-supplied 64-bit seed. `SimRng` is a SplitMix64
//! generator — tiny state, excellent statistical quality for simulation
//! jitter, and trivially forkable into independent per-component streams.

use rand::RngCore;

/// A seeded SplitMix64 generator.
#[derive(Debug, Clone)]
pub struct SimRng {
    state: u64,
}

impl SimRng {
    /// Create a generator from a seed. Equal seeds produce equal streams.
    pub fn new(seed: u64) -> Self {
        SimRng { state: seed }
    }

    /// The raw internal state. SplitMix64 advances by adding a constant
    /// *before* mixing, so `SimRng::new(rng.state())` continues the exact
    /// stream — which is what lets a checkpoint capture and resume every
    /// RNG mid-run.
    pub fn state(&self) -> u64 {
        self.state
    }

    /// Derive an independent child stream, e.g. one per flow or per port.
    /// The child's stream is decorrelated from the parent's continuation.
    pub fn fork(&mut self, salt: u64) -> SimRng {
        let mixed = self.next_u64() ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        SimRng::new(mixed)
    }

    /// Next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform integer in `[0, bound)` using Lemire's unbiased method.
    ///
    /// # Panics
    /// Panics if `bound == 0`.
    pub fn gen_range(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "gen_range bound must be positive");
        // Rejection sampling over the widening multiply.
        loop {
            let x = self.next_u64();
            let m = (x as u128) * (bound as u128);
            let low = m as u64;
            if low >= bound || low >= low.wrapping_neg() % bound {
                return (m >> 64) as u64;
            }
        }
    }

    /// Uniform f64 in `[0, 1)`.
    pub fn gen_f64(&mut self) -> f64 {
        // 53 high bits -> uniform double.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli trial with probability `p` (clamped to \[0,1\]).
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.gen_f64() < p.clamp(0.0, 1.0)
    }

    /// Exponentially distributed sample with the given mean (for Poisson
    /// inter-arrival jitter). Mean must be positive and finite.
    pub fn gen_exp(&mut self, mean: f64) -> f64 {
        assert!(mean > 0.0 && mean.is_finite(), "mean must be positive");
        let u = loop {
            let u = self.gen_f64();
            if u > 0.0 {
                break u;
            }
        };
        -mean * u.ln()
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.gen_range(i as u64 + 1) as usize;
            slice.swap(i, j);
        }
    }
}

/// Serializes as the bare state word; restoring continues the stream
/// exactly (see [`SimRng::state`]).
impl serde::Serialize for SimRng {
    fn serialize<E: serde::Encoder>(&self, e: &mut E) {
        serde::Serialize::serialize(&self.state, e)
    }
}

impl serde::Deserialize for SimRng {
    fn from_value(v: &serde::value::Value) -> Result<Self, serde::de::Error> {
        Ok(SimRng {
            state: serde::Deserialize::from_value(v)?,
        })
    }
}

impl RngCore for SimRng {
    fn next_u32(&mut self) -> u32 {
        (SimRng::next_u64(self) >> 32) as u32
    }
    fn next_u64(&mut self) -> u64 {
        SimRng::next_u64(self)
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let v = SimRng::next_u64(self).to_le_bytes();
            chunk.copy_from_slice(&v[..chunk.len()]);
        }
    }
    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), rand::Error> {
        self.fill_bytes(dest);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..100).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn forked_streams_are_deterministic_and_distinct() {
        let mut parent1 = SimRng::new(7);
        let mut parent2 = SimRng::new(7);
        let mut c1 = parent1.fork(100);
        let mut c2 = parent2.fork(100);
        assert_eq!(c1.next_u64(), c2.next_u64());
        let mut p3 = SimRng::new(7);
        let mut other = p3.fork(101);
        let mut c3 = SimRng::new(7).fork(100);
        assert_ne!(other.next_u64(), c3.next_u64());
    }

    #[test]
    fn gen_range_respects_bound() {
        let mut r = SimRng::new(9);
        for _ in 0..10_000 {
            assert!(r.gen_range(7) < 7);
        }
        // bound 1 always yields 0.
        assert_eq!(r.gen_range(1), 0);
    }

    #[test]
    fn gen_range_is_roughly_uniform() {
        let mut r = SimRng::new(1234);
        let mut counts = [0usize; 10];
        let n = 100_000;
        for _ in 0..n {
            counts[r.gen_range(10) as usize] += 1;
        }
        for &c in &counts {
            let expected = n / 10;
            assert!(
                (c as i64 - expected as i64).unsigned_abs() < (expected / 10) as u64,
                "bucket count {c} deviates >10% from {expected}"
            );
        }
    }

    #[test]
    fn gen_f64_in_unit_interval() {
        let mut r = SimRng::new(5);
        for _ in 0..10_000 {
            let x = r.gen_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn gen_exp_mean_converges() {
        let mut r = SimRng::new(77);
        let n = 200_000;
        let mean = 3.0;
        let sum: f64 = (0..n).map(|_| r.gen_exp(mean)).sum();
        let avg = sum / n as f64;
        assert!((avg - mean).abs() < 0.05, "empirical mean {avg} vs {mean}");
    }

    #[test]
    fn gen_bool_extremes() {
        let mut r = SimRng::new(3);
        assert!(!(0..100).any(|_| r.gen_bool(0.0)));
        assert!((0..100).all(|_| r.gen_bool(1.0)));
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = SimRng::new(11);
        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn state_capture_resumes_the_exact_stream() {
        let mut a = SimRng::new(42);
        for _ in 0..57 {
            a.next_u64();
        }
        let mut resumed = SimRng::new(a.state());
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), resumed.next_u64());
        }
    }

    #[test]
    fn serde_round_trip_preserves_state() {
        let mut a = SimRng::new(9);
        a.next_u64();
        let v = serde::Serialize::to_value(&a);
        let mut b: SimRng = serde::Deserialize::from_value(&v).unwrap();
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn rngcore_fill_bytes_deterministic() {
        let mut a = SimRng::new(8);
        let mut b = SimRng::new(8);
        let mut ba = [0u8; 13];
        let mut bb = [0u8; 13];
        a.fill_bytes(&mut ba);
        b.fill_bytes(&mut bb);
        assert_eq!(ba, bb);
    }
}
