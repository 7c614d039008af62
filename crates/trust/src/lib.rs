//! Trust in raters: the beta-function trust model and the trust manager.
//!
//! The P-scheme cannot simply drop every rating that lands in a suspicious
//! interval — some fair ratings get caught. Instead (paper Section IV-G and
//! Procedure 1) suspicion feeds a per-rater *beta trust record*:
//! at each trust-update epoch, a rater who provided `n` ratings of which
//! `f` were marked suspicious accumulates `S += n − f` successes and
//! `F += f` failures, and their trust is `(S + 1) / (S + F + 2)` — the mean
//! of a Beta(S+1, F+1) distribution (Jøsang–Ismail beta reputation).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod beta;
mod manager;

pub use beta::BetaTrust;
pub use manager::{TrustDelta, TrustManager, TrustUpdate};
