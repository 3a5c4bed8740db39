//! A small seeded generator (SplitMix64): the same seed gives the same
//! transcript on every platform.

#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    /// An independent stream derived from `seed` and a label.
    pub fn stream(seed: u64, label: u64) -> Rng {
        let mut r = Rng::new(seed.wrapping_mul(0x100_0000_01B3) ^ label.rotate_left(32));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }
}

/// A stateless hash of `(seed, x)`, for rows derived from their id.
pub fn mix(seed: u64, x: u64) -> u64 {
    Rng::stream(seed, x).next_u64()
}
