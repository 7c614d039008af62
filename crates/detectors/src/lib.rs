//! The unfair-rating detectors of the P-scheme.
//!
//! Four detectors analyze each product's rating stream independently
//! (paper Section IV):
//!
//! * [`mc`] — **mean change**: a Gaussian GLRT slid over the stream
//!   produces the MC indicator curve; its peaks segment the stream and
//!   segments with an abnormal mean (absolutely large, or moderately large
//!   but given by low-trust raters) are MC-suspicious.
//! * [`arc`] — **arrival-rate change**: daily rating counts are modeled
//!   Poisson; a GLRT produces the ARC curve. The H-ARC and L-ARC variants
//!   restrict counting to high- and low-valued ratings.
//! * [`hc`] — **histogram change**: rating values in a window are split
//!   into two single-linkage clusters; balanced clusters (HC ratio near 1)
//!   reveal a bimodal histogram.
//! * [`me`] — **model error**: an AR model fitted by the covariance method
//!   predicts poorly on honest white-noise-like ratings and well on
//!   collusive structure; low normalized error is suspicious.
//!
//! [`integrate`] combines them along the two detection paths of the
//! paper's Figure 1 and emits per-rating suspicion marks.
//!
//! [`online`] provides the incremental epoch loop: a rolling
//! [`OnlineState`] lets [`JointDetector::detect_all_online`] consume only
//! the ratings that arrived since the previous epoch while producing
//! output identical to the batch path (proven by oracle property tests).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod arc;
mod config;
pub mod hc;
pub mod integrate;
pub mod mc;
pub mod me;
pub mod online;
mod suspicion;

pub use arc::{ArcConfig, ArcOutcome, ArcVariant};
pub use config::{AblatedDetector, DetectorConfig};
pub use hc::{HcConfig, HcOutcome};
pub use integrate::{Band, DetectionResult, DetectorVerdictSummary, JointDetector, PathHit};
pub use mc::{McConfig, McOutcome};
pub use me::{MeConfig, MeOutcome};
pub use online::OnlineState;
pub use suspicion::{SuspicionKind, SuspiciousInterval};
