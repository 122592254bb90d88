//! The benchmark's only source of randomness: SplitMix64 seeded from
//! `--seed`. Every input (message sizes and bytes, file sizes and
//! bytes, request order, blob sizes) is drawn from it, so one seed
//! always yields one input set.

/// SplitMix64 (Steele, Lea and Flood 2014): tiny, fast and good
/// enough to pick sizes and fill payloads.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`; distinct `stream`s give independent
    /// sequences from one seed (inputs vs. reservoir sampling).
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        r.next_u64();
        r
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            v.swap(i, j);
        }
    }

    /// `n` random bytes.
    pub fn bytes(&mut self, n: usize) -> Vec<u8> {
        (0..n).map(|_| self.next_u64() as u8).collect()
    }

    /// `n` sizes stratified over `[lo, hi)`: one draw from each of `n`
    /// equal-probability strata of `curve`, then shuffled. The multiset
    /// barely moves between seeds (so medians and tails compare across
    /// seeds) while every individual size and the order are random.
    /// `curve` maps a uniform `[0, 1)` to a size.
    pub fn stratified(&mut self, n: usize, curve: impl Fn(f64) -> usize) -> Vec<usize> {
        let mut v: Vec<usize> = (0..n)
            .map(|i| curve((i as f64 + self.unit()) / n as f64))
            .collect();
        self.shuffle(&mut v);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sequence() {
        let (mut a, mut b) = (Rng::new(7, 0), Rng::new(7, 0));
        for _ in 0..8 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        assert_ne!(Rng::new(7, 0).next_u64(), Rng::new(8, 0).next_u64());
        assert_ne!(Rng::new(7, 0).next_u64(), Rng::new(7, 1).next_u64());
    }

    #[test]
    fn stratified_sizes_cover_the_range() {
        let mut r = Rng::new(1, 0);
        let v = r.stratified(100, |u| 10 + (u * 90.0) as usize);
        assert_eq!(v.len(), 100);
        assert!(v.iter().all(|&s| (10..100).contains(&s)));
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert!(sorted[0] < 11 && sorted[99] >= 99);
    }
}
