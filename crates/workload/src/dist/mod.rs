//! Probability distributions used by the workload generator.
//!
//! Implemented from scratch on top of `rand`'s uniform source so the
//! workspace needs no statistics dependency:
//!
//! * [`Zipf`] — bounded Zipf-like rank-frequency law (popularity),
//! * [`LogNormal`] — document sizes (calibrated from mean and median),
//! * [`BoundedPowerLaw`] — discrete power-law inter-reference gaps
//!   (temporal correlation).

mod lognormal;
mod powerlaw;
mod zipf;

pub use lognormal::LogNormal;
pub use powerlaw::BoundedPowerLaw;
pub use zipf::Zipf;
