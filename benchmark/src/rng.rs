//! The benchmark's only source of randomness: SplitMix64 streams derived
//! from `--seed`. Every generator (payloads, material choice, query mix,
//! Poisson gaps) draws from one of these, so one seed gives one op
//! stream. `LabSim` takes the same seed through `BenchConfig::seed`.

/// A SplitMix64 generator.
#[derive(Clone, Debug)]
pub struct Rng(u64);

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Rng {
    /// The stream numbered `stream` under `seed`: distinct streams of one
    /// seed are independent, and equal (seed, stream) pairs are identical.
    pub fn stream(seed: u64, stream: u64) -> Rng {
        Rng(mix(seed ^ mix(stream.wrapping_add(0x9E37_79B9_7F4A_7C15))))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `0..n` (`n > 0`), by multiply-shift.
    pub fn below(&mut self, n: usize) -> usize {
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Exponentially distributed with the given mean (Poisson gaps).
    pub fn exp(&mut self, mean: f64) -> f64 {
        -(1.0 - self.unit()).ln() * mean
    }

    /// A DNA string of `len` bases, 32 bases per draw.
    pub fn dna(&mut self, len: usize) -> String {
        const BASES: [char; 4] = ['A', 'C', 'G', 'T'];
        let mut out = String::with_capacity(len);
        let mut bits = 0u64;
        for i in 0..len {
            if i % 32 == 0 {
                bits = self.next_u64();
            }
            out.push(BASES[(bits & 3) as usize]);
            bits >>= 2;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_repeat_and_differ() {
        let draw = |seed, stream| {
            let mut r = Rng::stream(seed, stream);
            (0..8).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(7, 0), draw(7, 0));
        assert_ne!(draw(7, 0), draw(7, 1));
        assert_ne!(draw(7, 0), draw(8, 0));
    }

    #[test]
    fn below_and_unit_stay_in_range() {
        let mut r = Rng::stream(1, 0);
        let mut seen = [false; 5];
        for _ in 0..1000 {
            seen[r.below(5)] = true;
            let u = r.unit();
            assert!((0.0..1.0).contains(&u));
        }
        assert!(seen.iter().all(|s| *s));
    }

    #[test]
    fn exp_has_the_requested_mean() {
        let mut r = Rng::stream(3, 0);
        let n = 200_000;
        let mean = (0..n).map(|_| r.exp(250.0)).sum::<f64>() / n as f64;
        assert!((mean - 250.0).abs() < 2.5, "mean {mean}");
    }

    #[test]
    fn dna_is_dna() {
        let s = Rng::stream(9, 0).dna(100);
        assert_eq!(s.len(), 100);
        assert!(s.chars().all(|c| "ACGT".contains(c)));
    }
}
