//! The seeded case loop every property test runs, and the shrinker that
//! minimises a failing case. Std and `rand` only, so any test crate of
//! the workspace can include it by `#[path]`, with `#[macro_use]` for
//! [`property!`], [`ensure!`] and [`ensure_eq!`], as `mod cases` at the
//! root of the test crate.
//!
//! [`check`] draws its inputs from one stream seeded by the property's
//! name, so every run explores the same cases and distinct properties
//! explore distinct ones. On the first failure it [`shrink`]s the input
//! and panics with the seed, the case number, the failure and the shrunk
//! input's `Debug` form — for a scenario, a `qld --batch` script that
//! replays it.

#![allow(dead_code, unused_macros)]

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Debug;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// What a property returns: `Err` says what went wrong.
pub type Outcome = Result<(), String>;

/// An input of a property. Its `Debug` form is the failure report; the
/// lists it exposes are what [`shrink`] drops elements from.
pub trait Case: Clone + Debug {
    /// The lengths of the lists [`shrink`] may drop elements from.
    fn lists(&self) -> Vec<usize> {
        Vec::new()
    }

    /// A copy that keeps, of list `list`, the elements whose index `keep`
    /// accepts.
    fn retain(&self, _list: usize, _keep: &dyn Fn(usize) -> bool) -> Self {
        self.clone()
    }
}

/// FNV-1a of `name`: the seed of a property's input stream.
fn seed_of(name: &str) -> u64 {
    name.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Runs `property` on `cases` inputs from `generate`, drawn from the
/// stream [`seed_of`] `name` seeds. A panic inside the property counts
/// as a failure.
///
/// # Panics
///
/// On the first failing case, after shrinking it.
pub fn check<C: Case>(
    name: &str,
    cases: u32,
    mut generate: impl FnMut(&mut StdRng) -> C,
    mut property: impl FnMut(&C) -> Outcome,
) {
    let seed = seed_of(name);
    let mut rng = StdRng::seed_from_u64(seed);
    for case in 1..=cases {
        let input = generate(&mut rng);
        if let Err(failure) = run(&mut property, &input) {
            let (input, failure) = shrink(input, failure, &mut property);
            panic!("property {name} failed on case {case}/{cases} (seed {seed:#x}): {failure}\n{input:?}");
        }
    }
}

/// Runs `property` on `input`. A panic fails with its message after
/// `panicked: `.
fn run<C>(property: &mut impl FnMut(&C) -> Outcome, input: &C) -> Outcome {
    match catch_unwind(AssertUnwindSafe(|| property(input))) {
        Ok(outcome) => outcome,
        Err(panic) => {
            let message = panic
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()));
            Err(format!("panicked: {}", message.unwrap_or_default()))
        }
    }
}

/// What makes two failures the same one: the message up to the first
/// `": "` after a leading `panicked: ` — [`ensure_eq!`] puts the two
/// sides after it, a panic its detail — with each run of digits as `#`,
/// so an index or a count that a shrink renumbers does not tell two
/// failures apart, while a different check or a different panic does.
pub fn failure_kind(failure: &str) -> String {
    let (panicked, message) = match failure.strip_prefix("panicked: ") {
        Some(message) => (true, message),
        None => (false, failure),
    };
    let head = message.split(": ").next().unwrap_or_default();
    let mut kind = String::from(if panicked { "panicked: " } else { "" });
    for c in head.chars() {
        if !c.is_ascii_digit() {
            kind.push(c);
        } else if !kind.ends_with('#') {
            kind.push('#');
        }
    }
    kind
}

/// Delta debugging over each list of a failing `input` in turn: drop
/// halves, then quarters, down to single elements, keeping every drop
/// after which `property` still fails the same way (the same
/// [`failure_kind`]), until no single element of any list can go.
/// Returns the shrunk input and its failure.
fn shrink<C: Case>(
    mut input: C,
    mut failure: String,
    property: &mut impl FnMut(&C) -> Outcome,
) -> (C, String) {
    let kind = failure_kind(&failure);
    let mut progressed = true;
    while progressed {
        progressed = false;
        for list in 0..input.lists().len() {
            let mut chunk = input.lists()[list].div_ceil(2);
            while chunk > 0 {
                let mut start = 0;
                while start < input.lists()[list] {
                    let candidate = input.retain(list, &|i| i < start || i >= start + chunk);
                    match run(property, &candidate) {
                        Err(f) if failure_kind(&f) == kind => {
                            (input, failure, progressed) = (candidate, f, true);
                        }
                        _ => start += chunk,
                    }
                }
                chunk /= 2;
            }
        }
    }
    (input, failure)
}

/// [`shrink`] for a failure the caller found: the shrunk input and its
/// failure.
pub fn minimize<C: Case>(input: C, property: &mut impl FnMut(&C) -> Outcome) -> (C, String) {
    let failure = run(property, &input).expect_err("the input must fail");
    shrink(input, failure, property)
}

/// Defines `#[test]` functions, each running [`check`] under its own
/// name — the test-crate counterpart of `proptest!`:
///
/// ```ignore
/// property! {
///     /// What the property says.
///     fn a_property(input in generate; 64) {
///         ensure!(…);
///         Ok(())
///     }
/// }
/// ```
macro_rules! property {
    ($($(#[$attr:meta])* fn $name:ident($input:pat in $generate:expr; $cases:expr) $body:block)*) => {$(
        $(#[$attr])*
        #[test]
        fn $name() {
            $crate::cases::check(stringify!($name), $cases, $generate, |$input| $body);
        }
    )*};
}

/// Fails the property with the message unless `cond` holds.
macro_rules! ensure {
    ($cond:expr) => {
        ensure!($cond, "{}", stringify!($cond))
    };
    ($cond:expr, $($message:tt)+) => {
        if !$cond {
            return Err(format!($($message)+));
        }
    };
}

/// Fails the property with the message, and both sides, unless they are
/// equal.
macro_rules! ensure_eq {
    ($left:expr, $right:expr) => {
        ensure_eq!($left, $right, "{} == {}", stringify!($left), stringify!($right))
    };
    ($left:expr, $right:expr, $($message:tt)+) => {{
        let (left, right) = (&$left, &$right);
        if left != right {
            return Err(format!("{}: {:?} != {:?}", format!($($message)+), left, right));
        }
    }};
}
