//! Error types for the simulation kernel.

use crate::time::SimTime;
use std::error::Error;
use std::fmt;

/// Errors produced by the simulation kernel.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// An event was scheduled in the past relative to the current clock.
    ScheduledInPast {
        /// The current simulation time.
        now: SimTime,
        /// The (invalid) requested time.
        requested: SimTime,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::ScheduledInPast { now, requested } => write!(
                f,
                "event scheduled in the past: now {now}, requested {requested}"
            ),
        }
    }
}

impl Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = SimError::ScheduledInPast {
            now: SimTime::from_secs(2.0),
            requested: SimTime::from_secs(1.0),
        };
        let msg = e.to_string();
        assert!(msg.contains("past"));
        assert!(msg.contains("2.0"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SimError>();
    }
}
