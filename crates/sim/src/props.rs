//! A minimal property-testing harness driven by [`SimRng`].
//!
//! Replaces `proptest` in the hermetic build: each property runs many
//! randomized cases, every case drawing its inputs from a deterministic
//! stream forked from `(master seed, property name, case index)`. A failing
//! case reports the exact master seed and case index so it can be replayed:
//!
//! ```text
//! property `event_queue_pops_sorted` failed at case 17 of 256
//! rerun with IMPRESS_PROPS_SEED=3405691582 (and optionally IMPRESS_PROPS_CASES=18)
//! ```
//!
//! Environment knobs:
//!
//! * `IMPRESS_PROPS_SEED`  — master seed (default `0xCAFE_BABE`).
//! * `IMPRESS_PROPS_CASES` — override the per-property case count (e.g. a
//!   quick `=8` smoke pass, or `=10000` for a soak).
//!
//! Both are plain decimal; a value that is set but does not parse fails
//! every property by name instead of silently running the default.
//!
//! Usage:
//!
//! ```
//! use impress_sim::{props, prop_assume};
//!
//! props! {
//!     /// Shuffling preserves multiset membership.
//!     fn shuffle_preserves_elements(rng) {
//!         let mut v: Vec<usize> = (0..rng.below(100)).collect();
//!         let before = v.len();
//!         rng.shuffle(&mut v);
//!         assert_eq!(v.len(), before);
//!     }
//!
//!     /// Cases needing a precondition can discard with `prop_assume!`.
//!     fn division_round_trips(rng, cases = 64) {
//!         let d = rng.below(1000);
//!         prop_assume!(d != 0);
//!         let n = rng.below(1_000_000);
//!         assert_eq!(n / d * d + n % d, n);
//!     }
//! }
//! ```

use crate::rng::SimRng;

/// Default number of cases per property (proptest's default, matched so the
/// ported suites keep their statistical power).
pub const DEFAULT_CASES: u32 = 256;

/// Marker payload thrown by [`prop_assume!`](crate::prop_assume) to discard
/// a case without failing the property.
#[derive(Debug, Clone, Copy)]
pub struct Discard;

/// The master seed for this process: `IMPRESS_PROPS_SEED` or the default.
pub fn master_seed() -> u64 {
    env_or("IMPRESS_PROPS_SEED", 0xCAFE_BABE)
}

/// The per-property case count: `IMPRESS_PROPS_CASES` or `default`.
pub fn case_count(default: u32) -> u32 {
    env_or("IMPRESS_PROPS_CASES", default)
}

fn env_or<T: std::str::FromStr>(name: &str, default: T) -> T {
    let var = std::env::var(name).ok();
    parse_var(name, var.as_deref(), default).unwrap_or_else(|message| panic!("{message}"))
}

/// Unset means `default`; anything set must parse, or a mistyped rerun of a
/// printed failing seed would pass green on the default one.
fn parse_var<T: std::str::FromStr>(name: &str, var: Option<&str>, default: T) -> Result<T, String> {
    let kind = std::any::type_name::<T>();
    match var {
        None => Ok(default),
        Some(text) => text
            .parse()
            .map_err(|_| format!("{name}={text:?} does not parse as {kind}")),
    }
}

/// Run `body` for `cases` randomized cases. Called by the [`props!`]
/// (crate::props) macro expansion; not usually invoked directly.
///
/// Discarded cases (via [`prop_assume!`](crate::prop_assume)) do not count
/// as failures; if every case discards, the property fails for vacuity.
pub fn run_property(name: &str, cases: u32, mut body: impl FnMut(&mut SimRng)) {
    let seed = master_seed();
    let root = SimRng::from_seed(seed);
    let mut executed = 0u32;
    for case in 0..cases {
        let mut rng = root.fork_idx(name, u64::from(case));
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(&mut rng)));
        match outcome {
            Ok(()) => executed += 1,
            Err(payload) if payload.is::<Discard>() => continue,
            Err(payload) => {
                eprintln!("property `{name}` failed at case {case} of {cases}");
                eprintln!(
                    "rerun with IMPRESS_PROPS_SEED={seed} (and optionally \
                     IMPRESS_PROPS_CASES={})",
                    case + 1
                );
                std::panic::resume_unwind(payload);
            }
        }
    }
    assert!(
        executed > 0,
        "property `{name}`: all {cases} cases were discarded by prop_assume!"
    );
}

/// Declare `#[test]` functions that each run a randomized property.
///
/// Each item is `fn name(rng) { body }` with an optional
/// `, cases = N` after the binding to override the per-property case count.
/// The body receives `rng: &mut SimRng` and signals failure by panicking
/// (plain `assert!`/`assert_eq!` work as-is).
#[macro_export]
macro_rules! props {
    ($(
        $(#[$meta:meta])*
        fn $name:ident($rng:ident $(, cases = $cases:expr)?) $body:block
    )+) => {
        $(
            $(#[$meta])*
            #[test]
            fn $name() {
                #[allow(unused_mut, unused_variables)]
                let default_cases: u32 = $crate::props::DEFAULT_CASES;
                $( let default_cases: u32 = $cases; )?
                $crate::props::run_property(
                    stringify!($name),
                    $crate::props::case_count(default_cases),
                    |$rng: &mut $crate::SimRng| $body,
                );
            }
        )+
    };
}

/// Discard the current property case unless `cond` holds (the `proptest`
/// `prop_assume!` analog). Must be used inside a [`props!`](crate::props)
/// body.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            std::panic::panic_any($crate::props::Discard);
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_set_variable_that_does_not_parse_is_refused_by_name() {
        assert_eq!(parse_var("IMPRESS_PROPS_SEED", None, 7u64), Ok(7));
        assert_eq!(parse_var("IMPRESS_PROPS_SEED", Some("99"), 7u64), Ok(99));
        assert_eq!(parse_var("IMPRESS_PROPS_CASES", Some("18"), 256u32), Ok(18));
        for bad in ["10k", "", "-1", " 7", "0xCAFE"] {
            let message = parse_var("IMPRESS_PROPS_SEED", Some(bad), 7u64).unwrap_err();
            assert!(
                message.contains("IMPRESS_PROPS_SEED") && message.contains(&format!("{bad:?}")),
                "{message}"
            );
        }
    }

    #[test]
    fn cases_replay_deterministically() {
        let mut first: Vec<u64> = Vec::new();
        run_property("replay_check", 8, |rng| {
            first.push(rng.next_u64());
        });
        let mut second: Vec<u64> = Vec::new();
        run_property("replay_check", 8, |rng| {
            second.push(rng.next_u64());
        });
        assert_eq!(first, second);
        // Each case gets an independent stream.
        assert_eq!(first.len(), 8);
        let mut dedup = first.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), 8, "case streams must differ");
    }

    #[test]
    fn discarded_cases_do_not_fail() {
        run_property("discard_check", 16, |rng| {
            let v = rng.below(4);
            if v == 0 {
                std::panic::panic_any(Discard);
            }
            assert!(v < 4);
        });
    }

    #[test]
    #[should_panic(expected = "all 4 cases were discarded")]
    fn vacuous_properties_fail() {
        run_property("vacuous", 4, |_rng| {
            std::panic::panic_any(Discard);
        });
    }

    #[test]
    #[should_panic(expected = "deliberate")]
    fn failures_propagate() {
        run_property("failing", 4, |_rng| {
            panic!("deliberate");
        });
    }

    props! {
        /// The macro form compiles and runs: shuffle preserves length.
        fn macro_smoke(rng, cases = 8) {
            let n = rng.below(32);
            let mut v: Vec<usize> = (0..n).collect();
            rng.shuffle(&mut v);
            assert_eq!(v.len(), n);
        }
    }
}
