//! # dcf-stats
//!
//! Statistics substrate for the `dcfail` reproduction of *"What Can We Learn
//! from Four Years of Data Center Hardware Failures?"* (DSN 2017).
//!
//! The paper's methodology (§II-B) is: plot PDFs/CDFs of failure quantities,
//! fit candidate distributions by maximum likelihood, and run Pearson's
//! chi-squared tests against the fits (plus uniformity tests for the
//! temporal/spatial hypotheses). This crate implements exactly that toolkit,
//! from the special functions up:
//!
//! * [`special`] — ln Γ, regularized incomplete gamma, erf, digamma, probit.
//! * Distributions: [`Exponential`], [`Weibull`], [`Gamma`], [`LogNormal`],
//!   [`Normal`], [`Uniform`] behind the [`ContinuousDistribution`] trait.
//! * [`fit`] — MLE fitters returning [`Fitted`] values.
//! * [`chi_square`] — goodness-of-fit and uniformity tests with p-values.
//! * [`Ecdf`], [`mean`], [`median`] — the empirical plumbing behind every
//!   figure.
//! * [`anomaly`] — the μ ± 2σ rack-position outlier rule from §IV.
//! * [`rng`] — the seeded generator every simulated stream draws from.
//!
//! # Example: the paper's TBF methodology in five lines
//!
//! ```
//! use dcf_stats::{chi_square, fit};
//!
//! // Mostly-exponential gaps contaminated with a batch of tiny TBFs,
//! // like the batch failures in §V.
//! let mut tbf: Vec<f64> = (1..2000).map(|i| (i as f64 * 0.37).sin().abs() * 500.0 + 0.5).collect();
//! tbf.extend(std::iter::repeat(0.01).take(400));
//! for fitted in fit::fit_tbf_families(&tbf) {
//!     let out = chi_square::goodness_of_fit(&tbf, &fitted, 30, fitted.parameter_count()).unwrap();
//!     assert!(out.rejects_at(0.05)); // none of the four families fit — Hypothesis 3
//! }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod anomaly;
pub mod chi_square;
pub mod distribution;
mod ecdf;
mod error;
mod exponential;
pub mod fit;
mod gamma;
mod lognormal;
mod normal;
mod poisson;
pub mod rank;
pub mod rng;
pub mod special;
mod summary;
mod uniform;
mod weibull;

pub use distribution::{sample_n, ContinuousDistribution, Fitted};
pub use ecdf::Ecdf;
pub use error::StatsError;
pub use exponential::Exponential;
pub use gamma::Gamma;
pub use lognormal::LogNormal;
pub use normal::Normal;
pub use poisson::{poisson_count, Poisson};
pub use summary::{mean, median};
pub use uniform::Uniform;
pub use weibull::Weibull;
