//! Seeded input generation. Every payload byte and size comes from the
//! workload seed, so one seed always drives identical traffic.

/// splitmix64: small, fast and fully determined by its seed.
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..bound` (`bound > 0`).
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }

    pub fn fill(&mut self, buf: &mut [u8]) {
        for chunk in buf.chunks_mut(8) {
            let word = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&word[..chunk.len()]);
        }
    }
}

/// Bytes at the front of every payload that carry the request's sequence
/// number, so a servant can tell which request it is serving.
pub const SEQ_BYTES: usize = 8;

/// A pool of seeded payloads the workload cycles through.
pub struct PayloadPool {
    payloads: Vec<Vec<u8>>,
}

impl PayloadPool {
    /// `count` payloads of exactly `size` bytes.
    pub fn fixed(seed: u64, count: usize, size: usize) -> Self {
        Self::build(seed, vec![size; count])
    }

    /// `count` payloads whose sizes are stratified over `min..=max`: one
    /// size drawn inside each of `count` equal strata, then shuffled. The
    /// mix's mean size is therefore nearly independent of the seed, while
    /// sizes, order and bytes all follow it.
    pub fn stratified(seed: u64, count: usize, min: usize, max: usize) -> Self {
        let mut rng = SplitMix64::new(seed ^ 0x5EED_5123);
        let stride = ((max - min) / count).max(1);
        let mut sizes: Vec<usize> = (0..count)
            .map(|i| (min + i * stride + rng.below(stride as u64) as usize).min(max))
            .collect();
        for i in (1..sizes.len()).rev() {
            sizes.swap(i, rng.below(i as u64 + 1) as usize);
        }
        Self::build(seed, sizes)
    }

    fn build(seed: u64, sizes: Vec<usize>) -> Self {
        let mut rng = SplitMix64::new(seed);
        let payloads = sizes
            .into_iter()
            .map(|size| {
                let mut p = vec![0u8; size.max(SEQ_BYTES)];
                rng.fill(&mut p);
                p
            })
            .collect();
        PayloadPool { payloads }
    }

    /// The request body for sequence number `seq`: the pool entry with the
    /// sequence number stamped into its first [`SEQ_BYTES`] bytes.
    pub fn request(&self, seq: u64) -> Vec<u8> {
        let mut body = self.payloads[(seq % self.payloads.len() as u64) as usize].clone();
        body[..SEQ_BYTES].copy_from_slice(&seq.to_le_bytes());
        body
    }

    pub fn len(&self) -> usize {
        self.payloads.len()
    }

    pub fn mean_len(&self) -> f64 {
        let total: usize = self.payloads.iter().map(Vec::len).sum();
        total as f64 / self.payloads.len() as f64
    }
}

/// Reads back the sequence number a request body carries.
pub fn seq_of(body: &[u8]) -> Option<u64> {
    let head: [u8; SEQ_BYTES] = body.get(..SEQ_BYTES)?.try_into().ok()?;
    Some(u64::from_le_bytes(head))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sequence(pool: &PayloadPool, n: u64) -> Vec<Vec<u8>> {
        (0..n).map(|seq| pool.request(seq)).collect()
    }

    #[test]
    fn same_seed_gives_identical_payload_sequences() {
        let a = PayloadPool::stratified(7, 64, 512, 32 * 1024);
        let b = PayloadPool::stratified(7, 64, 512, 32 * 1024);
        assert_eq!(sequence(&a, 200), sequence(&b, 200));
        let a = PayloadPool::fixed(7, 16, 64);
        let b = PayloadPool::fixed(7, 16, 64);
        assert_eq!(sequence(&a, 50), sequence(&b, 50));
    }

    #[test]
    fn different_seed_gives_different_payloads_and_sizes() {
        let a = PayloadPool::stratified(7, 64, 512, 32 * 1024);
        let b = PayloadPool::stratified(8, 64, 512, 32 * 1024);
        assert_ne!(sequence(&a, 64), sequence(&b, 64));
        let sizes = |p: &PayloadPool| sequence(p, 64).iter().map(Vec::len).collect::<Vec<_>>();
        assert_ne!(sizes(&a), sizes(&b));
        assert_ne!(
            sequence(&PayloadPool::fixed(7, 16, 64), 16),
            sequence(&PayloadPool::fixed(8, 16, 64), 16)
        );
    }

    #[test]
    fn stratified_mix_spans_the_range_with_a_steady_mean() {
        for seed in 0..20 {
            let pool = PayloadPool::stratified(seed, 64, 512, 32 * 1024);
            let lens: Vec<usize> = pool.payloads.iter().map(Vec::len).collect();
            assert!(lens.iter().all(|&l| (512..=32 * 1024).contains(&l)));
            let mean = pool.mean_len();
            assert!((mean - 16_640.0).abs() < 300.0, "seed {seed}: mean {mean}");
        }
    }

    #[test]
    fn requests_carry_their_sequence_number() {
        let pool = PayloadPool::fixed(1, 4, 64);
        for seq in [0, 3, 4, 1 << 40] {
            assert_eq!(seq_of(&pool.request(seq)), Some(seq));
        }
        assert_eq!(seq_of(&[1, 2, 3]), None);
    }
}
