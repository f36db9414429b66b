//! A small seeded generator (SplitMix64). The benchmark derives every
//! input from `--seed` through this, so a seed names its inputs exactly.

#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5EED_BE7C_4A11_C0DE)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.below(i + 1);
            v.swap(i, j);
        }
    }
}

/// Draws `0..n` in seeded shuffled rounds, so every prefix of the draws
/// uses each value a balanced number of times.
#[derive(Clone, Debug)]
pub struct Deck {
    n: usize,
    left: Vec<usize>,
}

impl Deck {
    pub fn new(n: usize) -> Deck {
        Deck {
            n,
            left: Vec::new(),
        }
    }

    pub fn draw(&mut self, rng: &mut Rng) -> usize {
        if self.left.is_empty() {
            self.left = (0..self.n).collect();
            rng.shuffle(&mut self.left);
        }
        self.left.pop().expect("a deck of at least one card")
    }
}
