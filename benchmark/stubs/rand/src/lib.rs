//! Offline stand-in for the part of `rand` 0.8 this repository calls.
//!
//! The streams differ from the published crate's (`StdRng` here is
//! xoshiro256**, seeded through splitmix64), so worlds and models built with
//! it are not bit-identical to ones built with real `rand`. They are
//! deterministic per seed, which is all the benchmark relies on: every number
//! it compares was produced with this same generator.

pub mod distributions;
pub mod rngs;
pub mod seq;

pub mod prelude {
    pub use crate::distributions::Distribution;
    pub use crate::rngs::StdRng;
    pub use crate::seq::{IteratorRandom, SliceRandom};
    pub use crate::{Rng, RngCore, SeedableRng};
}

use distributions::uniform::SampleRange;
use distributions::{Distribution, Standard};

/// Source of random bits.
pub trait RngCore {
    fn next_u64(&mut self) -> u64;

    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Convenience sampling methods, implemented for every [`RngCore`].
pub trait Rng: RngCore {
    fn gen<T>(&mut self) -> T
    where
        Standard: Distribution<T>,
    {
        Standard.sample(self)
    }

    fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T {
        range.sample_single(self)
    }

    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "gen_bool: p={p} outside [0, 1]");
        self.gen::<f64>() < p
    }

    fn sample<T, D: Distribution<T>>(&mut self, dist: D) -> T {
        dist.sample(self)
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// A generator that can be built from a seed.
pub trait SeedableRng: Sized {
    type Seed;

    fn from_seed(seed: Self::Seed) -> Self;

    fn seed_from_u64(state: u64) -> Self;
}
