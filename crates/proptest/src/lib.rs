//! Seeded property-test harness for this workspace's test suites.
//!
//! A suite is spelled the way the published `proptest` crate spells it —
//! `proptest! { #![proptest_config(..)] #[test] fn name(x in strategy) {..} }`,
//! `prop_assert!`, `prop::collection::vec`, integer and float ranges as
//! strategies — and runs on `std` alone:
//!
//! * every test draws its cases from one fixed seed ([`SEED`]), so a run is
//!   the same run on every machine and a failure names the case that broke;
//! * a strategy is a function of a stream of `u64` *choices* and is
//!   monotone in each of them: a smaller choice is a smaller integer, a
//!   shorter collection, an earlier [`sample::select`] option;
//! * a failing case (an `Err` from `prop_assert*!`, or a panic) is shrunk by
//!   replaying its recorded choices with one of them zeroed or halved for as
//!   long as the case keeps failing, and the test then panics with the seed,
//!   the case index and the `Debug` form of the smallest failing input.
//!
//! Dev-only: nothing but `[dev-dependencies]` tables may name this crate.

use std::fmt::Debug;
use std::marker::PhantomData;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Seed of every test's case stream.
pub const SEED: u64 = 0x5eed_0000_0000_0001;

/// Most replays one failing case may spend on shrinking.
const SHRINK_BUDGET: usize = 256;

/// The choice stream a [`Strategy`] samples from: SplitMix64 draws, or a
/// recorded sequence being replayed (zeros once it runs out). Every choice
/// handed out is logged so the case can be replayed and shrunk.
pub struct TestRng {
    state: u64,
    replay: Option<Vec<u64>>,
    log: Vec<u64>,
}

impl TestRng {
    pub fn new(seed: u64) -> Self {
        TestRng {
            state: seed,
            replay: None,
            log: Vec::new(),
        }
    }

    fn replay(choices: Vec<u64>) -> Self {
        TestRng {
            state: 0,
            replay: Some(choices),
            log: Vec::new(),
        }
    }

    pub fn next_u64(&mut self) -> u64 {
        let v = match &self.replay {
            Some(choices) => choices.get(self.log.len()).copied().unwrap_or(0),
            None => {
                self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = self.state;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                z ^ (z >> 31)
            }
        };
        self.log.push(v);
        v
    }

    /// A value in `0..span` (0 for an empty span), monotone in the choice.
    pub fn below(&mut self, span: u64) -> u64 {
        ((self.next_u64() as u128 * span as u128) >> 64) as u64
    }

    /// A value in `[0, 1)`, monotone in the choice.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A generator of test inputs.
pub trait Strategy {
    type Value;

    fn sample(&self, rng: &mut TestRng) -> Self::Value;

    /// The strategy whose values are `f` of this one's.
    fn prop_map<T, F: Fn(Self::Value) -> T>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { source: self, f }
    }
}

/// See [`Strategy::prop_map`].
pub struct Map<S, F> {
    source: S,
    f: F,
}

impl<S: Strategy, T, F: Fn(S::Value) -> T> Strategy for Map<S, F> {
    type Value = T;
    fn sample(&self, rng: &mut TestRng) -> T {
        (self.f)(self.source.sample(rng))
    }
}

/// See [`any`].
pub struct Any<T>(PhantomData<T>);

/// Any value of `T` (`u64`, `i64`, `bool`).
pub fn any<T>() -> Any<T> {
    Any(PhantomData)
}

impl Strategy for Any<u64> {
    type Value = u64;
    fn sample(&self, rng: &mut TestRng) -> u64 {
        rng.next_u64()
    }
}

impl Strategy for Any<i64> {
    type Value = i64;
    fn sample(&self, rng: &mut TestRng) -> i64 {
        rng.next_u64() as i64
    }
}

impl Strategy for Any<bool> {
    type Value = bool;
    fn sample(&self, rng: &mut TestRng) -> bool {
        rng.next_u64() >> 63 == 1
    }
}

impl Strategy for Range<f64> {
    type Value = f64;
    fn sample(&self, rng: &mut TestRng) -> f64 {
        self.start + rng.unit_f64() * (self.end - self.start)
    }
}

macro_rules! int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                let span = if self.start < self.end {
                    self.end.wrapping_sub(self.start) as u64
                } else {
                    0
                };
                self.start.wrapping_add(rng.below(span) as $t)
            }
        }
    )*};
}
int_range_strategy!(u32, u64, usize, i64);

macro_rules! tuple_strategy {
    ($($s:ident . $i:tt),+) => {
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn sample(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$i.sample(rng),)+)
            }
        }
    };
}
tuple_strategy!(A.0, B.1);
tuple_strategy!(A.0, B.1, C.2);
tuple_strategy!(A.0, B.1, C.2, D.3);

pub mod collection {
    use super::{Strategy, TestRng};
    use std::collections::BTreeSet;
    use std::ops::Range;

    /// Length of a generated collection: a `usize` (exactly that many) or
    /// a `Range<usize>`.
    pub struct SizeRange(Range<usize>);

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange(n..n + 1)
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            SizeRange(r)
        }
    }

    pub struct VecStrategy<S> {
        elem: S,
        len: Range<usize>,
    }

    pub fn vec<S: Strategy>(elem: S, len: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            elem,
            len: len.into().0,
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = self.len.sample(rng);
            (0..n).map(|_| self.elem.sample(rng)).collect()
        }
    }

    pub struct BTreeSetStrategy<S> {
        elem: S,
        len: Range<usize>,
    }

    pub fn btree_set<S: Strategy>(elem: S, len: impl Into<SizeRange>) -> BTreeSetStrategy<S>
    where
        S::Value: Ord,
    {
        BTreeSetStrategy {
            elem,
            len: len.into().0,
        }
    }

    impl<S: Strategy> Strategy for BTreeSetStrategy<S>
    where
        S::Value: Ord,
    {
        type Value = BTreeSet<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Self::Value {
            let n = self.len.sample(rng);
            let mut set = BTreeSet::new();
            // Duplicate draws can leave the set short of `n`: retry a few
            // times, then settle for what there is.
            for _ in 0..4 * n.max(1) {
                if set.len() >= n {
                    break;
                }
                set.insert(self.elem.sample(rng));
            }
            set
        }
    }
}

pub mod sample {
    use super::{Strategy, TestRng};

    pub struct Select<T>(Vec<T>);

    /// One of `options`, each equally likely.
    pub fn select<T: Clone>(options: Vec<T>) -> Select<T> {
        assert!(!options.is_empty(), "select from no options");
        Select(options)
    }

    impl<T: Clone> Strategy for Select<T> {
        type Value = T;
        fn sample(&self, rng: &mut TestRng) -> T {
            self.0[rng.below(self.0.len() as u64) as usize].clone()
        }
    }
}

/// `prop::collection::vec(..)`, `prop::sample::select(..)`.
pub mod prop {
    pub use crate::collection;
    pub use crate::sample;
}

/// Why a case failed; what `prop_assert*!` return.
#[derive(Debug)]
pub enum TestCaseError {
    Fail(String),
}

impl TestCaseError {
    pub fn fail(reason: impl Into<String>) -> Self {
        TestCaseError::Fail(reason.into())
    }
}

/// Per-suite settings: how many cases each test of the suite runs.
pub struct ProptestConfig {
    pub cases: u32,
}

impl ProptestConfig {
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

/// Run one property: `cfg.cases` inputs from `generate`, each handed to
/// `test`. The first failing one is shrunk and reported by panicking.
/// [`proptest!`] expands every test to one call of this.
pub fn run<V: Debug>(
    name: &str,
    cfg: ProptestConfig,
    generate: impl Fn(&mut TestRng) -> V,
    test: impl Fn(V) -> Result<(), TestCaseError>,
) {
    let attempt = |rng: &mut TestRng| -> Result<(), String> {
        let input = generate(rng);
        match catch_unwind(AssertUnwindSafe(|| test(input))) {
            Ok(Ok(())) => Ok(()),
            Ok(Err(TestCaseError::Fail(why))) => Err(why),
            Err(panic) => Err(match panic.downcast::<String>() {
                Ok(s) => format!("panicked: {s}"),
                Err(panic) => match panic.downcast::<&'static str>() {
                    Ok(s) => format!("panicked: {s}"),
                    Err(_) => "panicked".to_string(),
                },
            }),
        }
    };
    let mut rng = TestRng::new(SEED);
    for case in 0..cfg.cases {
        rng.log.clear();
        let Err(mut why) = attempt(&mut rng) else {
            continue;
        };
        let mut choices = std::mem::take(&mut rng.log);
        let mut budget = SHRINK_BUDGET;
        let mut i = 0;
        while i < choices.len() {
            let mut shrunk = false;
            for smaller in [0, choices[i] / 2] {
                if smaller == choices[i] || budget == 0 {
                    continue;
                }
                budget -= 1;
                let mut trial = choices.clone();
                trial[i] = smaller;
                let mut replay = TestRng::replay(trial);
                if let Err(w) = attempt(&mut replay) {
                    (choices, why) = (replay.log, w);
                    shrunk = true;
                    break;
                }
            }
            // A halved choice may halve again; one that did not move is done.
            if !shrunk || choices.get(i) == Some(&0) {
                i += 1;
            }
        }
        let input = generate(&mut TestRng::replay(choices));
        panic!(
            "property `{name}` failed at case {case} of {} (seed {SEED:#x}): {why}\n\
             smallest failing input: {input:#?}",
            cfg.cases
        );
    }
}

/// A suite of property tests; see the crate docs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $(
        $(#[$meta:meta])*
        fn $name:ident( $($arg:pat_param in $strat:expr),* $(,)? ) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            $crate::run(
                stringify!($name),
                $cfg,
                |rng| ($($crate::Strategy::sample(&($strat), rng),)*),
                |($($arg,)*)| {
                    $body
                    #[allow(unreachable_code)]
                    ::std::result::Result::Ok(())
                },
            );
        }
    )*};
}

/// Pass the current case when an assumption does not hold.
#[macro_export]
macro_rules! prop_assume {
    ($c:expr) => {{
        if !($c) {
            return ::std::result::Result::Ok(());
        }
    }};
}

#[macro_export]
macro_rules! prop_assert {
    ($c:expr) => {
        $crate::prop_assert!($c, "assertion failed: {}", stringify!($c))
    };
    ($c:expr, $($fmt:tt)+) => {{
        if !($c) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)+)));
        }
    }};
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr $(,)?) => {
        $crate::prop_assert_eq!($a, $b, "assertion failed: left == right")
    };
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let (a, b) = (&$a, &$b);
        if !(a == b) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "{}\n  left: {a:?}\n right: {b:?}",
                format_args!($($fmt)+)
            )));
        }
    }};
}

pub mod prelude {
    pub use crate::{any, prop, ProptestConfig, Strategy, TestCaseError};
    pub use crate::{prop_assert, prop_assert_eq, prop_assume, proptest};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::{run, TestRng, SEED};

    #[test]
    fn ranges_stay_in_bounds_and_cover_both_ends() {
        let mut rng = TestRng::new(SEED);
        let (mut lo, mut hi) = (false, false);
        for _ in 0..2000 {
            let v = (-3i64..4).sample(&mut rng);
            assert!((-3..4).contains(&v));
            (lo, hi) = (lo | (v == -3), hi | (v == 3));
            let f = (0.5f64..2.0).sample(&mut rng);
            assert!((0.5..2.0).contains(&f));
            assert_eq!((7u32..7).sample(&mut rng), 7);
        }
        assert!(lo && hi);
    }

    #[test]
    fn the_case_stream_is_a_function_of_the_seed() {
        let draw = || {
            let mut rng = TestRng::new(SEED);
            prop::collection::vec(any::<u64>(), 0..9).sample(&mut rng)
        };
        assert_eq!(draw(), draw());
    }

    fn failure_of(f: impl FnOnce() + std::panic::UnwindSafe) -> String {
        let panic = std::panic::catch_unwind(f).expect_err("property must fail");
        *panic.downcast::<String>().expect("formatted panic")
    }

    #[test]
    fn a_failing_integer_shrinks_to_the_boundary() {
        let msg = failure_of(|| {
            run(
                "ge_100_fails",
                ProptestConfig::with_cases(64),
                |rng| ((0u64..10_000).sample(rng),),
                |(v,)| {
                    prop_assert!(v < 100, "{v} is not below 100");
                    Ok(())
                },
            )
        });
        assert!(msg.contains("seed 0x5eed000000000001"), "{msg}");
        // Halving stops within a factor of two of the smallest failure.
        let shrunk: u64 = msg
            .split("smallest failing input: (\n")
            .nth(1)
            .and_then(|s| {
                s.trim()
                    .trim_end_matches([',', ')', '\n'])
                    .trim()
                    .parse()
                    .ok()
            })
            .unwrap_or_else(|| panic!("unparsed: {msg}"));
        assert!((100..=200).contains(&shrunk), "{msg}");
    }

    #[test]
    fn a_failing_length_shrinks_and_panics_are_caught() {
        let msg = failure_of(|| {
            run(
                "long_vecs_panic",
                ProptestConfig::with_cases(64),
                |rng| (prop::collection::vec(any::<u64>(), 0..40).sample(rng),),
                |(v,)| {
                    assert!(v.len() < 5, "too long");
                    Ok(())
                },
            )
        });
        assert!(msg.contains("panicked: too long"), "{msg}");
        // Shortest failing vector of zeroed elements, give or take halving.
        let zeros = msg.matches("\n        0,").count();
        assert!((5..=10).contains(&zeros), "{msg}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn the_macro_binds_patterns_maps_tuples_and_assumes(
            mut v in prop::collection::vec(0usize..10, 1..8),
            (a, b) in (any::<bool>(), prop::sample::select(vec![2i64, 4])).prop_map(|(a, b)| (b, a)),
            set in prop::collection::btree_set(0u32..50, 0..10),
        ) {
            prop_assume!(v.len() > 1);
            v.sort_unstable();
            prop_assert!(v.windows(2).all(|w| w[0] <= w[1]));
            prop_assert!(a == 2 || a == 4, "a = {}", a);
            prop_assert_eq!(b, b);
            prop_assert_eq!(set.range(50..).count(), 0, "{:?}", set);
            if set.is_empty() {
                return Ok(());
            }
        }
    }
}
