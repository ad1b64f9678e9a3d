//! Typed errors for the survey-level drivers.
//!
//! A production survey runs for hours across many ranks; an `assert!` on a
//! malformed argument aborts the whole process and loses every completed
//! shot. The drivers instead return [`ConfigError`] for caller mistakes
//! (checkable before any work starts) and [`RtmError`] for failures that
//! surface mid-run (device OOM, an exhausted cluster, a malformed plan),
//! so the resilient executor can catch, retry, or degrade.

use openacc_sim::data::DataError;
use openacc_sim::exec::GangEnvError;
use std::fmt;

/// Invalid driver arguments, detected before any propagation starts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    /// A survey needs at least one shot.
    NoShots,
    /// A time loop needs at least one step.
    ZeroSteps,
    /// Snapshots and imaging need a positive period.
    ZeroSnapPeriod,
    /// Checkpointing needs at least one storage slot.
    ZeroSlots,
    /// Decomposition needs at least one GPU.
    ZeroGpus,
    /// Execution needs at least one rank.
    ZeroRanks,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::NoShots => write!(f, "survey has no shots"),
            ConfigError::ZeroSteps => write!(f, "time loop has zero steps"),
            ConfigError::ZeroSnapPeriod => write!(f, "snapshot period is zero"),
            ConfigError::ZeroSlots => write!(f, "checkpoint plan has zero slots"),
            ConfigError::ZeroGpus => write!(f, "decomposition over zero GPUs"),
            ConfigError::ZeroRanks => write!(f, "execution over zero ranks"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// A failure surfacing while a migration or modeling run executes.
#[derive(Debug, Clone, PartialEq)]
pub enum RtmError {
    /// The run was misconfigured (see [`ConfigError`]).
    Config(ConfigError),
    /// The device runtime rejected the run (OOM, unmapped data).
    Data(DataError),
    /// Every rank in the cluster has been blacklisted; the survey cannot
    /// make progress.
    NoHealthyRanks,
    /// A survey schedule or result-collection invariant was violated
    /// (empty work queue popped, a shot with no image, a missing collector
    /// rank) — the submission is rejected as malformed instead of
    /// panicking a worker thread.
    MalformedPlan(String),
    /// An emitted observability artifact failed its self-validation
    /// (malformed trace JSON, overlapping timeline spans).
    Observability(String),
    /// The `ACC_GANGS` environment value for a real host run is invalid.
    Gangs(GangEnvError),
}

impl fmt::Display for RtmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RtmError::Config(e) => write!(f, "configuration error: {e}"),
            RtmError::Data(e) => write!(f, "device data error: {e}"),
            RtmError::NoHealthyRanks => write!(f, "all ranks blacklisted"),
            RtmError::MalformedPlan(what) => write!(f, "malformed survey plan: {what}"),
            RtmError::Observability(msg) => write!(f, "observability artifact invalid: {msg}"),
            RtmError::Gangs(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for RtmError {}

impl From<ConfigError> for RtmError {
    fn from(e: ConfigError) -> Self {
        RtmError::Config(e)
    }
}

impl From<DataError> for RtmError {
    fn from(e: DataError) -> Self {
        RtmError::Data(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        assert!(ConfigError::NoShots.to_string().contains("no shots"));
        let e: RtmError = ConfigError::ZeroSlots.into();
        assert!(e.to_string().contains("zero slots"));
    }
}
