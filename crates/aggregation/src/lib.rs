//! Rating-aggregation defense schemes.
//!
//! Three schemes, exactly the ones the paper's real-data analysis compares
//! (Section V-A):
//!
//! * [`PScheme`] — the paper's proposed signal-based reliable rating
//!   aggregation system: four detectors joined along two paths (crate
//!   `rrs-detectors`), a beta-trust manager updated monthly (Procedure 1,
//!   crate `rrs-trust`), a rating filter, and trust-weighted aggregation
//!   (Eq. 7).
//!   [`PSchemeState`] is its epoch stepper, which the serving engine
//!   steps too.
//! * [`SaScheme`] — simple averaging with no defense.
//! * [`BfScheme`] — the Whitby–Jøsang beta-function filter, the
//!   representative majority-rule baseline.
//!
//! All three implement [`rrs_core::AggregationScheme`], so the MP metric
//! and the Rating Challenge harness treat them interchangeably.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod bf;
pub mod filter;
pub mod p_scheme;
pub mod sa;
pub mod weighted;

pub use bf::BfScheme;
pub use p_scheme::{PScheme, PSchemeConfig, PSchemeState};
pub use sa::SaScheme;
pub use weighted::weighted_aggregate;
