//! Distributions: `Standard`, uniform ranges and `WeightedIndex<f64>`.

use crate::Rng;

pub trait Distribution<T> {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> T;
}

impl<T, D: Distribution<T> + ?Sized> Distribution<T> for &D {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> T {
        (**self).sample(rng)
    }
}

/// Full-range integers, floats in `[0, 1)`, fair booleans.
#[derive(Debug, Clone, Copy)]
pub struct Standard;

impl Distribution<u64> for Standard {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        rng.next_u64()
    }
}

impl Distribution<u32> for Standard {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u32 {
        rng.next_u32()
    }
}

impl Distribution<usize> for Standard {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        rng.next_u64() as usize
    }
}

impl Distribution<bool> for Standard {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> bool {
        rng.next_u64() >> 63 == 1
    }
}

impl Distribution<f64> for Standard {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Distribution<f32> for Standard {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f32 {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

pub mod uniform {
    //! `gen_range` support for `a..b` and `a..=b`.

    use crate::Rng;
    use std::ops::{Range, RangeInclusive};

    pub trait SampleRange<T> {
        fn sample_single<R: Rng + ?Sized>(self, rng: &mut R) -> T;
    }

    /// Unbiased integer in `[0, span)` by rejection (Lemire's widening
    /// multiply would also do; this one is easier to check).
    fn below<R: Rng + ?Sized>(rng: &mut R, span: u64) -> u64 {
        debug_assert!(span > 0);
        let zone = u64::MAX - (u64::MAX - span + 1) % span;
        loop {
            let v = rng.next_u64();
            if v <= zone {
                return v % span;
            }
        }
    }

    macro_rules! int_ranges {
        ($($t:ty),*) => {$(
            impl SampleRange<$t> for Range<$t> {
                fn sample_single<R: Rng + ?Sized>(self, rng: &mut R) -> $t {
                    assert!(self.start < self.end, "gen_range: empty range");
                    let span = (self.end as i128 - self.start as i128) as u64;
                    (self.start as i128 + below(rng, span) as i128) as $t
                }
            }
            impl SampleRange<$t> for RangeInclusive<$t> {
                fn sample_single<R: Rng + ?Sized>(self, rng: &mut R) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "gen_range: empty range");
                    let span = (hi as i128 - lo as i128 + 1) as u128;
                    if span > u64::MAX as u128 {
                        return rng.next_u64() as $t;
                    }
                    (lo as i128 + below(rng, span as u64) as i128) as $t
                }
            }
        )*};
    }
    int_ranges!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    macro_rules! float_ranges {
        ($($t:ty),*) => {$(
            impl SampleRange<$t> for Range<$t> {
                fn sample_single<R: Rng + ?Sized>(self, rng: &mut R) -> $t {
                    assert!(self.start < self.end, "gen_range: empty range");
                    let unit: $t = rng.gen();
                    self.start + (self.end - self.start) * unit
                }
            }
            impl SampleRange<$t> for RangeInclusive<$t> {
                fn sample_single<R: Rng + ?Sized>(self, rng: &mut R) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "gen_range: empty range");
                    let unit: $t = rng.gen();
                    lo + (hi - lo) * unit
                }
            }
        )*};
    }
    float_ranges!(f32, f64);
}

/// Why a [`WeightedIndex`] could not be built.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WeightedError {
    NoItem,
    InvalidWeight,
    AllWeightsZero,
}

impl std::fmt::Display for WeightedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{self:?}")
    }
}

impl std::error::Error for WeightedError {}

/// Samples an index with probability proportional to its weight.
#[derive(Debug, Clone, PartialEq)]
pub struct WeightedIndex<X> {
    cumulative: Vec<X>,
}

impl WeightedIndex<f64> {
    pub fn new<I: IntoIterator<Item = f64>>(weights: I) -> Result<Self, WeightedError> {
        let mut total = 0.0;
        let mut cumulative = Vec::new();
        for w in weights {
            if !(w >= 0.0 && w.is_finite()) {
                return Err(WeightedError::InvalidWeight);
            }
            total += w;
            cumulative.push(total);
        }
        if cumulative.is_empty() {
            return Err(WeightedError::NoItem);
        }
        if total <= 0.0 {
            return Err(WeightedError::AllWeightsZero);
        }
        Ok(WeightedIndex { cumulative })
    }
}

impl Distribution<usize> for WeightedIndex<f64> {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let total = *self.cumulative.last().expect("non-empty by construction");
        let x = rng.gen::<f64>() * total;
        self.cumulative.partition_point(|&c| c <= x).min(self.cumulative.len() - 1)
    }
}
