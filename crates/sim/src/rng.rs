//! Deterministic, forkable random streams.
//!
//! Every stochastic component of the reproduction (landscape construction,
//! surrogate model noise, task duration jitter) draws from a [`SimRng`]
//! derived from a master seed plus a *stream label*. Labelled forking means:
//!
//! * two runs with the same master seed are bit-identical,
//! * adding a new consumer of randomness does not perturb existing streams
//!   (no shared global sequence), and
//! * parallel (threaded-backend) and simulated runs see the same draws.
//!
//! # Stream specification (in-repo, hermetic)
//!
//! The generator is an in-repo ChaCha8 core — **the stream values are
//! defined by this file, not by any external crate**. The spec, fixed for
//! reproducibility of recorded artifacts:
//!
//! * **Seeding** — [`SimRng::from_seed`] expands the `u64` master seed into
//!   32 key bytes with four rounds of SplitMix64 (output words little-endian
//!   concatenated).
//! * **Block function** — ChaCha with 8 rounds (4 double-rounds), constants
//!   `"expa nd 3 2-by te k"`, a 64-bit little-endian block counter in state
//!   words 12–13 and a zero nonce in words 14–15.
//! * **Word stream** — the 16 output words of each block, in order;
//!   `next_u64` packs two consecutive words little-endian (low word first).
//! * **Uniform doubles** — `uniform()` is `(next_u64() >> 11) × 2⁻⁵³`,
//!   i.e. 53 mantissa bits in `[0, 1)`.
//! * **Bounded ints** — `below(n)` rejection-samples `next_u64()` against
//!   the largest multiple of `n` to stay exactly unbiased.
//! * **Forking** — [`SimRng::fork`] hashes the label with FNV-1a (64-bit)
//!   and XOR-mixes the hash, rotated by `16·i + 1` bits, into the i-th
//!   parent seed word. [`SimRng::fork_idx`] extends the FNV hash over a
//!   `/` separator byte followed by the index's 8 little-endian bytes —
//!   no intermediate `String` is allocated on this hot path.
//!
//! ChaCha8 was kept (over a cheaper PRNG) because the paper's experiment
//! harnesses already recorded artifacts under a ChaCha-class stream and the
//! statistical quality margin is worth the ~8 rounds per 64 bytes.

/// Number of ChaCha double-rounds (8 rounds total — the "8" in ChaCha8).
const DOUBLE_ROUNDS: usize = 4;

/// The ChaCha constants: `"expand 32-byte k"` as little-endian words.
const SIGMA: [u32; 4] = [0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574];

/// In-repo ChaCha8 block generator over a 256-bit key, 64-bit counter and
/// zero nonce. Produces the word stream consumed by [`SimRng`].
#[derive(Clone, Debug)]
struct ChaCha8 {
    key: [u32; 8],
    counter: u64,
    buf: [u32; 16],
    /// Next unconsumed word in `buf`; 16 means "refill before reading".
    idx: usize,
}

impl ChaCha8 {
    fn new(key: [u32; 8]) -> ChaCha8 {
        ChaCha8 {
            key,
            counter: 0,
            buf: [0u32; 16],
            idx: 16,
        }
    }

    /// The ChaCha quarter-round on four state words.
    #[inline]
    fn quarter(state: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
        state[a] = state[a].wrapping_add(state[b]);
        state[d] = (state[d] ^ state[a]).rotate_left(16);
        state[c] = state[c].wrapping_add(state[d]);
        state[b] = (state[b] ^ state[c]).rotate_left(12);
        state[a] = state[a].wrapping_add(state[b]);
        state[d] = (state[d] ^ state[a]).rotate_left(8);
        state[c] = state[c].wrapping_add(state[d]);
        state[b] = (state[b] ^ state[c]).rotate_left(7);
    }

    /// Generate the next 16-word block into `buf` and advance the counter.
    fn refill(&mut self) {
        let mut state = [0u32; 16];
        state[..4].copy_from_slice(&SIGMA);
        state[4..12].copy_from_slice(&self.key);
        state[12] = self.counter as u32;
        state[13] = (self.counter >> 32) as u32;
        // state[14..16] stay zero (nonce).
        let input = state;
        for _ in 0..DOUBLE_ROUNDS {
            // Column round.
            Self::quarter(&mut state, 0, 4, 8, 12);
            Self::quarter(&mut state, 1, 5, 9, 13);
            Self::quarter(&mut state, 2, 6, 10, 14);
            Self::quarter(&mut state, 3, 7, 11, 15);
            // Diagonal round.
            Self::quarter(&mut state, 0, 5, 10, 15);
            Self::quarter(&mut state, 1, 6, 11, 12);
            Self::quarter(&mut state, 2, 7, 8, 13);
            Self::quarter(&mut state, 3, 4, 9, 14);
        }
        for (out, inp) in state.iter_mut().zip(input) {
            *out = out.wrapping_add(inp);
        }
        self.buf = state;
        self.counter = self.counter.wrapping_add(1);
        self.idx = 0;
    }

    #[inline]
    fn next_word(&mut self) -> u32 {
        if self.idx == 16 {
            self.refill();
        }
        let w = self.buf[self.idx];
        self.idx += 1;
        w
    }
}

/// SplitMix64 step, used only to expand master seeds into key material.
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x1000_0000_01b3;

#[inline]
fn fnv1a_step(h: u64, byte: u8) -> u64 {
    (h ^ u64::from(byte)).wrapping_mul(FNV_PRIME)
}

/// A deterministic random stream. Its seed is the key of its ChaCha8
/// core, which reading never changes: a child derives from it whatever
/// the parent's read position.
#[derive(Clone, Debug)]
pub struct SimRng {
    core: ChaCha8,
}

impl SimRng {
    /// Create a stream from a master seed (SplitMix64-expanded, see the
    /// module docs for the exact spec).
    pub fn from_seed(seed: u64) -> Self {
        let mut sm = seed;
        SimRng::from_seed_words(std::array::from_fn(|_| splitmix64(&mut sm)))
    }

    /// The stream keyed by four 64-bit seed words, each split into two key
    /// words low half first: the little-endian concatenation of the spec.
    fn from_seed_words(seed: [u64; 4]) -> Self {
        let key = std::array::from_fn(|i| (seed[i / 2] >> (32 * (i % 2))) as u32);
        SimRng {
            core: ChaCha8::new(key),
        }
    }

    /// Derive an independent child stream identified by `label`.
    ///
    /// The child's seed mixes the parent seed material with an FNV-1a hash
    /// of the label, so sibling streams with different labels never collide
    /// in practice and the derivation is order-independent: forking does not
    /// consume parent randomness, and the same label always yields the same
    /// child regardless of how far the parent stream has been read.
    pub fn fork(&self, label: &str) -> SimRng {
        let mut h = FNV_OFFSET;
        for b in label.bytes() {
            h = fnv1a_step(h, b);
        }
        self.fork_hash(h)
    }

    /// Derive a child stream labelled by an integer index (e.g. replica id).
    ///
    /// The index is folded into the FNV hash directly — a `/` separator
    /// byte followed by the index's 8 little-endian bytes — so replica
    /// spawning (this sits on its hot path) performs no `String` allocation.
    pub fn fork_idx(&self, label: &str, idx: u64) -> SimRng {
        let mut h = FNV_OFFSET;
        for b in label.bytes() {
            h = fnv1a_step(h, b);
        }
        h = fnv1a_step(h, b'/');
        for b in idx.to_le_bytes() {
            h = fnv1a_step(h, b);
        }
        self.fork_hash(h)
    }

    fn fork_hash(&self, h: u64) -> SimRng {
        let key = &self.core.key;
        SimRng::from_seed_words(std::array::from_fn(|i| {
            let parent = u64::from(key[2 * i]) | u64::from(key[2 * i + 1]) << 32;
            parent ^ h.rotate_left((i as u32) * 16 + 1)
        }))
    }

    /// Next 64 raw bits (two consecutive words, low word first).
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let lo = u64::from(self.core.next_word());
        let hi = u64::from(self.core.next_word());
        (hi << 32) | lo
    }

    /// Uniform draw in `[0, 1)` (53 mantissa bits).
    #[inline]
    pub fn uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform draw in `[lo, hi)`.
    pub fn uniform_range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.uniform()
    }

    /// Uniform integer in `[0, n)`, exactly unbiased via rejection
    /// sampling. Panics if `n == 0`.
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "below(0) is undefined");
        let n = n as u64;
        // Largest v such that [0, v] covers a whole number of residue
        // classes mod n; draws above it are rejected (at most one expected
        // retry even in the worst case).
        let zone = u64::MAX - (u64::MAX - n + 1) % n;
        loop {
            let v = self.next_u64();
            if v <= zone {
                return (v % n) as usize;
            }
        }
    }

    /// Standard normal draw (Box–Muller; one value per call for simplicity).
    pub(crate) fn normal(&mut self) -> f64 {
        let u1: f64 = self.uniform().max(f64::MIN_POSITIVE);
        let u2: f64 = self.uniform();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Normal draw with the given mean and standard deviation.
    pub fn normal_with(&mut self, mean: f64, sd: f64) -> f64 {
        mean + sd * self.normal()
    }

    /// Log-normal-ish positive jitter: multiplies `base` by `exp(sd * N(0,1))`.
    /// Used for task duration noise.
    pub fn jitter(&mut self, base: f64, sd: f64) -> f64 {
        base * (sd * self.normal()).exp()
    }

    /// Bernoulli draw with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.uniform() < p.clamp(0.0, 1.0)
    }

    /// Choose a uniformly random element of `slice`. Panics on empty input.
    pub fn choose<'a, T>(&mut self, slice: &'a [T]) -> &'a T {
        &slice[self.below(slice.len())]
    }

    /// Fisher–Yates shuffle in place.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.below(i + 1);
            slice.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::from_seed(42);
        let mut b = SimRng::from_seed(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    /// Golden values pinning the in-repo stream spec (module docs). If this
    /// test ever fails, the spec changed and every recorded artifact is
    /// invalidated — bump them deliberately, never silently.
    #[test]
    fn stream_spec_is_pinned() {
        let mut rng = SimRng::from_seed(2025);
        let first: Vec<u32> = (0..4).map(|_| rng.core.next_word()).collect();
        let mut again = SimRng::from_seed(2025);
        let packed = again.next_u64();
        assert_eq!(
            packed,
            (u64::from(first[1]) << 32) | u64::from(first[0]),
            "next_u64 must pack two words little-endian"
        );
        let mut third = SimRng::from_seed(2025);
        let u = third.uniform();
        assert_eq!(
            u,
            (packed >> 11) as f64 * (1.0 / (1u64 << 53) as f64),
            "uniform must use the top 53 bits of next_u64"
        );
        assert!((0.0..1.0).contains(&u));
    }

    #[test]
    fn chacha_core_is_chacha() {
        // The published ChaCha8 keystream for an all-zero key, zero nonce
        // and block counter 0, as bytes.
        const BLOCK_0: &str = "3e00ef2f895f40d67f5bb8e81f09a5a1\
                               2c840ec3ce9a7f3b181be188ef711a1e\
                               984ce172b9216f419f445367456d5619\
                               314a42a3da86b001387bfdb80e0cfe42";
        let mut a = ChaCha8::new([0; 8]);
        let block: String = (0..16)
            .flat_map(|_| a.next_word().to_le_bytes())
            .map(|b| format!("{b:02x}"))
            .collect();
        assert_eq!(block, BLOCK_0);
        // The next block differs: the counter advanced.
        let next: Vec<u32> = (0..16).map(|_| a.next_word()).collect();
        let mut b = ChaCha8::new([0; 8]);
        let first: Vec<u32> = (0..16).map(|_| b.next_word()).collect();
        assert_ne!(first, next);
    }

    /// Golden words for a master seed and for the fork chain the control
    /// plane derives a heartbeat's stream by, recorded before the seed
    /// moved from bytes to key words. Never re-record them to make a
    /// change pass: every artifact is a function of these streams.
    #[test]
    fn seeding_and_forking_are_pinned() {
        let mut root = SimRng::from_seed(2025);
        let words: Vec<u64> = (0..4).map(|_| root.next_u64()).collect();
        assert_eq!(
            words,
            [
                0xca4b_fe29_18ca_b48f,
                0xc562_cd2e_fec9_ae80,
                0x55ec_b3e9_50d2_47b6,
                0xc4bd_1352_ac10_8fb3,
            ]
        );
        let hb = SimRng::from_seed(2025).fork("control-plane").fork("hb");
        let pinned = [
            (0, [0xb6e5_46cf_e77a_c5f0, 0x6a42_a31e_66e8_b874]),
            (7 << 32 | 3, [0xe3ae_a875_5522_358d, 0x1e6a_a97d_6531_aad1]),
            (u64::MAX, [0xa75f_7d4f_698a_ede1, 0xd158_a65c_8a56_74fc]),
        ];
        for (key, expected) in pinned {
            let mut msg = hb.fork_idx("msg", key);
            assert_eq!([msg.next_u64(), msg.next_u64()], expected, "key {key:#x}");
        }
    }

    #[test]
    fn different_labels_give_different_streams() {
        let root = SimRng::from_seed(7);
        let mut a = root.fork("mpnn");
        let mut b = root.fork("alphafold");
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn fork_is_independent_of_parent_position() {
        let mut root = SimRng::from_seed(7);
        let before = root.fork("x");
        let _ = root.next_u64(); // advance parent
        let after = root.fork("x");
        let mut b = before;
        let mut a = after;
        for _ in 0..32 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn fork_idx_is_deterministic_and_label_sensitive() {
        let root = SimRng::from_seed(11);
        let mut a = root.fork_idx("replica", 3);
        let mut b = root.fork_idx("replica", 3);
        let mut c = root.fork_idx("replica", 4);
        let mut d = root.fork_idx("other", 3);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        assert_eq!(xs, (0..8).map(|_| b.next_u64()).collect::<Vec<_>>());
        assert_ne!(xs, (0..8).map(|_| c.next_u64()).collect::<Vec<_>>());
        assert_ne!(xs[0], d.next_u64());
    }

    #[test]
    fn normal_has_plausible_moments() {
        let mut rng = SimRng::from_seed(1);
        let n = 20_000;
        let draws: Vec<f64> = (0..n).map(|_| rng.normal()).collect();
        let mean = draws.iter().sum::<f64>() / n as f64;
        let var = draws.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }

    #[test]
    fn chance_respects_extremes() {
        let mut rng = SimRng::from_seed(3);
        assert!(!(0..100).any(|_| rng.chance(0.0)));
        assert!((0..100).all(|_| rng.chance(1.0)));
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = SimRng::from_seed(9);
        let mut v: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn jitter_is_positive_and_centered() {
        let mut rng = SimRng::from_seed(11);
        let vals: Vec<f64> = (0..5000).map(|_| rng.jitter(10.0, 0.1)).collect();
        assert!(vals.iter().all(|&v| v > 0.0));
        let mean = vals.iter().sum::<f64>() / vals.len() as f64;
        assert!((mean - 10.0).abs() < 0.3, "mean {mean}");
    }

    #[test]
    fn below_covers_full_range() {
        let mut rng = SimRng::from_seed(5);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            seen[rng.below(10)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn below_is_roughly_uniform() {
        let mut rng = SimRng::from_seed(13);
        let n = 7usize;
        let draws = 70_000;
        let mut counts = vec![0u32; n];
        for _ in 0..draws {
            counts[rng.below(n)] += 1;
        }
        let expect = draws as f64 / n as f64;
        for (i, &c) in counts.iter().enumerate() {
            let dev = (f64::from(c) - expect).abs() / expect;
            assert!(dev < 0.05, "bucket {i}: {c} vs {expect} (dev {dev:.3})");
        }
    }
}
