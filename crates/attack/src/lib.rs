//! Attack behavior models and the unfair-rating generator.
//!
//! This crate is the paper's headline contribution: having analyzed real
//! attack data from the Rating Challenge, the authors identify the
//! features that determine an attack's strength — **bias**, **variance**,
//! **arrival rate**, and **correlation with fair ratings** — and build a
//! generator (paper Fig. 8) that composes them:
//!
//! * [`value_gen`] — the rating-value-set generator: values drawn around
//!   `fair mean + bias` with a chosen spread, clamped to the 0–5 scale.
//! * [`time_gen`] — the rating-time-set generator: when the unfair
//!   ratings arrive (burst, Poisson process, even spacing) over a chosen
//!   attack duration.
//! * [`mapper`] — the value–time mapper, including the heuristic
//!   correlation algorithm of Procedure 3 that pairs each attack slot with
//!   the value farthest from the preceding fair rating.
//! * [`generator`] — the composed [`AttackGenerator`].
//! * [`search`] — Procedure 2: the heuristic search that zooms in on the
//!   strongest region of the variance–bias plane against a given defense.
//!   [`search::optimize`] is the generator with its learning loop closed:
//!   it generates each probe attack and feeds its measured effect, from a
//!   caller-supplied oracle, back into the search.
//! * [`strategies`] — a library of parameterized attack strategies
//!   spanning the behaviors observed in the challenge, from naive extremes
//!   to variance camouflage.
//! * [`population`] — a synthetic population of challenge submissions
//!   (substituting for the paper's 251 human submissions; see DESIGN.md).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod generator;
pub mod mapper;
pub mod population;
pub mod search;
pub mod strategies;
pub mod time_gen;
mod types;
pub mod value_gen;

pub use generator::{AttackConfig, AttackGenerator};
pub use mapper::MappingStrategy;
pub use population::{
    generate_population, submission_stats, PopulationConfig, SubmissionSpec, SubmissionStats,
};
pub use search::{SearchOutcome, SearchSpace};
pub use strategies::AttackStrategy;
pub use time_gen::ArrivalModel;
pub use types::{AttackContext, AttackSequence, Direction, FairView};
