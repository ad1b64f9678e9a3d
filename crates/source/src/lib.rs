//! # seismic-source
//!
//! Source wavelets, acquisition geometry, injection operators, and shot
//! records (seismograms).
//!
//! The paper's Algorithm 1 injects a point source during the forward phase
//! (`source_injection`) and re-injects recorded receiver data during the
//! backward phase (`receiver_injection`). The receiver-injection loop — "the
//! loop iterates over the number of receivers provided in the model" — is the
//! kernel whose inlining behaviour differentiates the CRAY and PGI results in
//! Section 6.2; `rtm-core` reproduces both the per-receiver-launch and the
//! inlined single-kernel variants on top of the primitives here.

pub mod geometry;
pub mod seismogram;
pub mod wavelet;

pub use geometry::{Acquisition2, Acquisition3, Receiver2, Receiver3};
pub use seismogram::Seismogram;
pub use wavelet::{ricker, ricker_trace, Wavelet};
