//! Generators.

use crate::{RngCore, SeedableRng};

/// xoshiro256** seeded through splitmix64.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StdRng {
    s: [u64; 4],
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl RngCore for StdRng {
    fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }
}

impl SeedableRng for StdRng {
    type Seed = [u8; 32];

    fn from_seed(seed: [u8; 32]) -> Self {
        let mut s = [0u64; 4];
        for (word, chunk) in s.iter_mut().zip(seed.chunks_exact(8)) {
            *word = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
        }
        if s == [0; 4] {
            // xoshiro must not start from the all-zero state.
            return Self::seed_from_u64(0);
        }
        StdRng { s }
    }

    fn seed_from_u64(mut state: u64) -> Self {
        let mut s = [0u64; 4];
        for word in &mut s {
            *word = splitmix64(&mut state);
        }
        StdRng { s }
    }
}
