//! Core types for feedback-based rating systems.
//!
//! This crate provides the vocabulary shared by every other `rrs` crate:
//!
//! * identifiers for raters and products ([`RaterId`], [`ProductId`]),
//! * validated rating values on the 0–5 scale ([`RatingValue`]),
//! * a continuous time model in fractional days ([`Timestamp`], [`Days`],
//!   [`TimeWindow`]),
//! * individual ratings and their fair/unfair provenance ([`Rating`],
//!   [`RatingSource`]),
//! * the [`RatingDataset`] container holding one struct-of-arrays
//!   timeline per product, written only through
//!   [`RatingDataset::insert`] and read through borrowed
//!   [`TimelineView`]s,
//! * the manipulation-power (MP) metric of Feng et al. (ICDCS 2008)
//!   ([`metrics`]),
//! * the [`AggregationScheme`] trait implemented by defense schemes, and
//! * ground-truth bookkeeping for detection quality ([`labels`]).
//!
//! # Example
//!
//! ```
//! use rrs_core::{ProductId, RaterId, Rating, RatingDataset, RatingSource, RatingValue, Timestamp};
//!
//! # fn main() -> Result<(), rrs_core::CoreError> {
//! let mut dataset = RatingDataset::new();
//! let rating = Rating::new(
//!     RaterId::new(1),
//!     ProductId::new(0),
//!     Timestamp::new(3.5)?,
//!     RatingValue::new(4.0)?,
//! );
//! dataset.insert(rating, RatingSource::Fair);
//! assert_eq!(dataset.len(), 1);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod check;
mod dataset;
mod error;
mod ids;
pub mod io;
pub mod labels;
pub mod metrics;
pub mod par;
mod rating;
pub mod rng;
mod scheme;
mod store;
pub mod stream;
mod time;
mod value;

pub use dataset::{DatasetView, RatingDataset, RatingEntry, RatingId, TimelineView};
pub use error::CoreError;
pub use ids::{ProductId, RaterId};
pub use labels::{ConfusionCounts, GroundTruth};
pub use metrics::{
    manipulation_power, mp_from_outcomes, shared_context, MpParams, MpReport, ProductMp,
};
pub use rating::{Rating, RatingSource};
pub use scheme::{AggregationScheme, EvalContext, SchemeOutcome, ScoringMode};
pub use time::{Days, TimeWindow, Timestamp};
pub use value::RatingValue;
