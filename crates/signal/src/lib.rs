//! Statistical signal-processing substrate for unfair-rating detection.
//!
//! The paper's detectors reduce to a handful of classical tools, all
//! implemented here from first principles:
//!
//! * descriptive statistics ([`stats`]),
//! * the Poisson arrival-rate GLRT of Eq. (5) ([`glrt`]; the MC detector
//!   computes Eq. (1) itself from prefix sums),
//! * autoregressive modeling by the covariance method, used by the
//!   model-error detector ([`ar`]), backed by a small dense linear solver
//!   ([`linalg`]),
//! * single-linkage clustering on the real line (cut the largest gaps),
//!   replacing MATLAB's `clusterdata()` in the histogram-change detector
//!   ([`cluster`]),
//! * indicator-curve analysis: peaks, U-shapes, segmentation ([`curve`]),
//! * special functions: `ln Γ` and the regularized incomplete beta
//!   function ([`special`]),
//! * random sampling primitives (Gaussian via Box–Muller, Poisson,
//!   truncated normal) used by the fair-data and attack generators
//!   ([`sampling`]),
//! * whiteness diagnostics (autocorrelation, Ljung–Box) that check the
//!   paper's honest-ratings-are-white-noise premise ([`autocorr`]).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod ar;
pub mod autocorr;
pub mod cluster;
pub mod curve;
pub mod glrt;
pub mod linalg;
pub mod sampling;
pub mod special;
pub mod stats;

pub use ar::{fit_ar, ArModel};
pub use cluster::single_linkage_1d;
pub use curve::{Curve, CurvePoint, Peak, UShape};
pub use glrt::arrival_rate_glrt;
pub use special::{ln_gamma, reg_inc_beta};
