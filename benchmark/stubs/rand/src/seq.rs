//! Sequence helpers: `choose` and `shuffle` on slices, `choose` on iterators.

use crate::Rng;

pub trait SliceRandom {
    type Item;

    fn choose<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<&Self::Item>;

    fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R);
}

impl<T> SliceRandom for [T] {
    type Item = T;

    fn choose<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<&T> {
        if self.is_empty() {
            None
        } else {
            Some(&self[rng.gen_range(0..self.len())])
        }
    }

    fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R) {
        for i in (1..self.len()).rev() {
            self.swap(i, rng.gen_range(0..=i));
        }
    }
}

pub trait IteratorRandom: Iterator + Sized {
    /// Uniform choice by reservoir sampling.
    fn choose<R: Rng + ?Sized>(self, rng: &mut R) -> Option<Self::Item> {
        let mut chosen = None;
        for (seen, item) in self.enumerate() {
            if rng.gen_range(0..=seen) == 0 {
                chosen = Some(item);
            }
        }
        chosen
    }
}

impl<I: Iterator + Sized> IteratorRandom for I {}
