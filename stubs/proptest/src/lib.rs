//! Offline stand-in for the subset of `proptest` the workspace uses: seeded
//! random generation, no shrinking.

use std::fmt::Debug;

pub mod test_runner {
    #[derive(Clone, Debug)]
    pub struct Config {
        pub cases: u32,
    }

    impl Config {
        pub fn with_cases(cases: u32) -> Self {
            Config { cases }
        }
    }

    impl Default for Config {
        fn default() -> Self {
            Config { cases: 256 }
        }
    }

    pub struct TestRng(u64);

    impl TestRng {
        pub fn from_name(name: &str) -> Self {
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            for b in name.bytes() {
                h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
            }
            TestRng(h)
        }

        pub fn next_u64(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        /// Uniform in `[0, n)`; `n == 0` yields 0.
        pub fn below(&mut self, n: u64) -> u64 {
            if n == 0 {
                0
            } else {
                self.next_u64() % n
            }
        }

        pub fn unit(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    #[derive(Debug)]
    pub struct TestCaseError(pub String);

    impl std::fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str(&self.0)
        }
    }
}

use test_runner::TestRng;

pub mod strategy {
    use super::*;

    pub trait Strategy {
        type Value: Debug;

        fn new_value(&self, rng: &mut TestRng) -> Self::Value;

        fn prop_map<O: Debug, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
        {
            Map { inner: self, f }
        }

        fn prop_flat_map<S: Strategy, F: Fn(Self::Value) -> S>(self, f: F) -> FlatMap<Self, F>
        where
            Self: Sized,
        {
            FlatMap { inner: self, f }
        }

        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            BoxedStrategy(Box::new(self))
        }
    }

    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, O: Debug, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
        type Value = O;
        fn new_value(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.new_value(rng))
        }
    }

    pub struct FlatMap<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, T: Strategy, F: Fn(S::Value) -> T> Strategy for FlatMap<S, F> {
        type Value = T::Value;
        fn new_value(&self, rng: &mut TestRng) -> T::Value {
            (self.f)(self.inner.new_value(rng)).new_value(rng)
        }
    }

    pub struct BoxedStrategy<T>(Box<dyn Strategy<Value = T>>);

    impl<T: Debug> Strategy for BoxedStrategy<T> {
        type Value = T;
        fn new_value(&self, rng: &mut TestRng) -> T {
            self.0.new_value(rng)
        }
    }

    #[derive(Clone, Debug)]
    pub struct Just<T>(pub T);

    impl<T: Clone + Debug> Strategy for Just<T> {
        type Value = T;
        fn new_value(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    pub struct Union<T>(pub Vec<BoxedStrategy<T>>);

    impl<T: Debug> Strategy for Union<T> {
        type Value = T;
        fn new_value(&self, rng: &mut TestRng) -> T {
            let i = rng.below(self.0.len() as u64) as usize;
            self.0[i].new_value(rng)
        }
    }

    macro_rules! int_ranges {
        ($($t:ty),*) => {$(
            impl Strategy for std::ops::Range<$t> {
                type Value = $t;
                fn new_value(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as i128 - self.start as i128) as u128;
                    (self.start as i128 + (rng.next_u64() as u128 % span) as i128) as $t
                }
            }
            impl Strategy for std::ops::RangeInclusive<$t> {
                type Value = $t;
                fn new_value(&self, rng: &mut TestRng) -> $t {
                    let span = (*self.end() as i128 - *self.start() as i128 + 1) as u128;
                    (*self.start() as i128 + (rng.next_u64() as u128 % span) as i128) as $t
                }
            }
        )*};
    }
    int_ranges!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    macro_rules! float_ranges {
        ($($t:ty),*) => {$(
            impl Strategy for std::ops::Range<$t> {
                type Value = $t;
                fn new_value(&self, rng: &mut TestRng) -> $t {
                    let v = self.start + (self.end - self.start) * rng.unit() as $t;
                    if v >= self.end { self.start } else { v }
                }
            }
            impl Strategy for std::ops::RangeInclusive<$t> {
                type Value = $t;
                fn new_value(&self, rng: &mut TestRng) -> $t {
                    *self.start() + (*self.end() - *self.start()) * rng.unit() as $t
                }
            }
        )*};
    }
    float_ranges!(f32, f64);

    macro_rules! tuples {
        ($(($($s:ident $i:tt),*)),*) => {$(
            impl<$($s: Strategy),*> Strategy for ($($s,)*) {
                type Value = ($($s::Value,)*);
                fn new_value(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$i.new_value(rng),)*)
                }
            }
        )*};
    }
    tuples!(
        (A 0),
        (A 0, B 1),
        (A 0, B 1, C 2),
        (A 0, B 1, C 2, D 3),
        (A 0, B 1, C 2, D 3, E 4),
        (A 0, B 1, C 2, D 3, E 4, F 5),
        (A 0, B 1, C 2, D 3, E 4, F 5, G 6),
        (A 0, B 1, C 2, D 3, E 4, F 5, G 6, H 7)
    );

    /// A string pattern: a sequence of atoms (`.`, a `[class]`, an escaped
    /// or literal char), each optionally repeated `{n}`, `{a,b}`, `*`, `+`
    /// or `?`.
    impl Strategy for &str {
        type Value = String;
        fn new_value(&self, rng: &mut TestRng) -> String {
            let mut out = String::new();
            for (atom, lo, hi) in super::pattern::parse(self) {
                let n = lo + rng.below((hi - lo + 1) as u64) as usize;
                for _ in 0..n {
                    out.push(atom.sample(rng));
                }
            }
            out
        }
    }
}

mod pattern {
    use super::TestRng;

    pub enum Atom {
        Any,
        Set(Vec<char>),
    }

    /// Characters `.` draws from besides printable ASCII: escapes,
    /// controls and multi-byte code points.
    const EXOTIC: &[char] =
        &['\t', '\r', '\u{1}', '\u{7f}', '"', '\\', 'é', 'ß', '中', '密', '😀', '\u{2028}'];

    impl Atom {
        pub fn sample(&self, rng: &mut TestRng) -> char {
            match self {
                Atom::Any => {
                    if rng.below(4) == 0 {
                        EXOTIC[rng.below(EXOTIC.len() as u64) as usize]
                    } else {
                        (0x20 + rng.below(0x5f) as u8) as char
                    }
                }
                Atom::Set(chars) => chars[rng.below(chars.len() as u64) as usize],
            }
        }
    }

    pub fn parse(pat: &str) -> Vec<(Atom, usize, usize)> {
        let chars: Vec<char> = pat.chars().collect();
        let mut i = 0;
        let mut out = Vec::new();
        while i < chars.len() {
            let atom = match chars[i] {
                '.' => {
                    i += 1;
                    Atom::Any
                }
                '[' => {
                    i += 1;
                    let mut set = Vec::new();
                    while chars[i] != ']' {
                        let c = if chars[i] == '\\' {
                            i += 1;
                            chars[i]
                        } else {
                            chars[i]
                        };
                        i += 1;
                        if chars[i] == '-' && chars[i + 1] != ']' {
                            let hi = chars[i + 1];
                            i += 2;
                            set.extend((c as u32..=hi as u32).filter_map(char::from_u32));
                        } else {
                            set.push(c);
                        }
                    }
                    i += 1;
                    Atom::Set(set)
                }
                '\\' => {
                    i += 2;
                    Atom::Set(vec![chars[i - 1]])
                }
                c => {
                    i += 1;
                    Atom::Set(vec![c])
                }
            };
            let (lo, hi) = match chars.get(i) {
                Some('{') => {
                    let close = i + chars[i..].iter().position(|&c| c == '}').unwrap();
                    let body: String = chars[i + 1..close].iter().collect();
                    i = close + 1;
                    match body.split_once(',') {
                        Some((a, b)) => (a.trim().parse().unwrap(), b.trim().parse().unwrap()),
                        None => {
                            let n = body.trim().parse().unwrap();
                            (n, n)
                        }
                    }
                }
                Some('*') => {
                    i += 1;
                    (0, 8)
                }
                Some('+') => {
                    i += 1;
                    (1, 8)
                }
                Some('?') => {
                    i += 1;
                    (0, 1)
                }
                _ => (1, 1),
            };
            out.push((atom, lo, hi));
        }
        out
    }
}

pub mod arbitrary {
    use super::*;
    use std::marker::PhantomData;

    pub trait Arbitrary: Debug + Sized {
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    macro_rules! ints {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> $t {
                    // Bias towards edges and small values, like proptest.
                    match rng.below(8) {
                        0 => <$t>::MIN,
                        1 => <$t>::MAX,
                        2 => rng.below(16) as $t,
                        _ => rng.next_u64() as $t,
                    }
                }
            }
        )*};
    }
    ints!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> bool {
            rng.below(2) == 1
        }
    }

    impl Arbitrary for f32 {
        fn arbitrary(rng: &mut TestRng) -> f32 {
            (rng.unit() as f32 - 0.5) * 2e6
        }
    }

    impl Arbitrary for f64 {
        fn arbitrary(rng: &mut TestRng) -> f64 {
            (rng.unit() - 0.5) * 2e12
        }
    }

    pub struct Any<T>(PhantomData<T>);

    impl<T: Arbitrary> strategy::Strategy for Any<T> {
        type Value = T;
        fn new_value(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(PhantomData)
    }
}

pub mod collection {
    use super::strategy::Strategy;
    use super::TestRng;

    pub struct SizeRange(usize, usize);

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange(n, n)
        }
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> Self {
            SizeRange(r.start, r.end.saturating_sub(1).max(r.start))
        }
    }

    impl From<std::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: std::ops::RangeInclusive<usize>) -> Self {
            SizeRange(*r.start(), *r.end())
        }
    }

    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn new_value(&self, rng: &mut TestRng) -> Self::Value {
            let SizeRange(lo, hi) = self.size;
            let n = lo + rng.below((hi - lo + 1) as u64) as usize;
            (0..n).map(|_| self.element.new_value(rng)).collect()
        }
    }

    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy { element, size: size.into() }
    }
}

pub mod option {
    use super::strategy::Strategy;
    use super::TestRng;

    pub struct OptionStrategy<S>(S);

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;
        fn new_value(&self, rng: &mut TestRng) -> Self::Value {
            if rng.below(4) == 0 {
                None
            } else {
                Some(self.0.new_value(rng))
            }
        }
    }

    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy(inner)
    }
}

pub mod prelude {
    pub use crate::arbitrary::{any, Arbitrary};
    pub use crate::strategy::{BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::{Config as ProptestConfig, TestCaseError};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest};

    pub mod prop {
        pub use crate::{collection, option, strategy};
    }
}

#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_fns!(($cfg) $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns!(($crate::test_runner::Config::default()) $($rest)*);
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_fns {
    (($cfg:expr)) => {};
    (($cfg:expr)
        $(#[$meta:meta])*
        fn $name:ident($($arg:pat in $strat:expr),* $(,)?) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::test_runner::Config = $cfg;
            let mut rng = $crate::test_runner::TestRng::from_name(stringify!($name));
            for case in 0..config.cases {
                let mut inputs = String::new();
                $(
                    let $arg = {
                        let v = $crate::strategy::Strategy::new_value(&$strat, &mut rng);
                        inputs.push_str(&format!("{} = {:?}; ", stringify!($arg), v));
                        v
                    };
                )*
                #[allow(unreachable_code, clippy::redundant_closure_call)]
                let result = (|| -> Result<(), $crate::test_runner::TestCaseError> {
                    $body
                    Ok(())
                })();
                if let Err(e) = result {
                    panic!("property failed at case {case}: {e}\ninputs: {inputs}");
                }
            }
        }
        $crate::__proptest_fns!(($cfg) $($rest)*);
    };
}

#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        if !$cond {
            return Err($crate::test_runner::TestCaseError(format!(
                "assertion failed: {}", stringify!($cond)
            )));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return Err($crate::test_runner::TestCaseError(format!($($fmt)+)));
        }
    };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr $(,)?) => {
        match (&$a, &$b) {
            (a, b) => {
                if !(*a == *b) {
                    return Err($crate::test_runner::TestCaseError(format!(
                        "assertion failed: {} == {}\n left: {:?}\nright: {:?}",
                        stringify!($a), stringify!($b), a, b
                    )));
                }
            }
        }
    };
    ($a:expr, $b:expr, $($fmt:tt)+) => {
        match (&$a, &$b) {
            (a, b) => {
                if !(*a == *b) {
                    return Err($crate::test_runner::TestCaseError(format!(
                        "{}\n left: {:?}\nright: {:?}", format!($($fmt)+), a, b
                    )));
                }
            }
        }
    };
}

#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr $(, $($fmt:tt)+)?) => {
        match (&$a, &$b) {
            (a, b) => {
                if *a == *b {
                    return Err($crate::test_runner::TestCaseError(format!(
                        "assertion failed: {} != {}: {:?}", stringify!($a), stringify!($b), a
                    )));
                }
            }
        }
    };
}

#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(, $($fmt:tt)*)?) => {
        if !$cond {
            return Ok(());
        }
    };
}

#[macro_export]
macro_rules! prop_oneof {
    ($($s:expr),+ $(,)?) => {
        $crate::strategy::Union(vec![$($crate::strategy::Strategy::boxed($s)),+])
    };
}
