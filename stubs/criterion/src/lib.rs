//! Offline stand-in: the API surface the workspace's benches name, each
//! routine run once.

#[derive(Default)]
pub struct Criterion;

pub struct Bencher;

impl Bencher {
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        std::hint::black_box(routine());
    }
}

impl Criterion {
    pub fn sample_size(self, _n: usize) -> Self {
        self
    }

    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, _id: &str, mut f: F) -> &mut Self {
        f(&mut Bencher);
        self
    }
}

#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut c: $crate::Criterion = $config;
            $($target(&mut c);)+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        $crate::criterion_group! { name = $name; config = $crate::Criterion::default(); targets = $($target),+ }
    };
}

#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}
