//! Error types shared across the workspace.

use std::fmt;

use crate::codec::DecodeError;
use crate::id::ProcessId;
use crate::round::Round;

/// Convenient result alias used throughout the workspace.
pub type Result<T> = std::result::Result<T, AbcastError>;

/// Errors surfaced by the atomic broadcast stack.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum AbcastError {
    /// A stable-storage operation failed (e.g. an I/O error of the WAL).
    Storage(String),
    /// A stored or received record could not be decoded.
    Corrupt(DecodeError),
    /// An operation was attempted on a process that is currently down.
    ProcessDown(ProcessId),
    /// An operation referenced a process outside the configured set.
    UnknownProcess(ProcessId),
    /// A consensus instance violated its interface contract (e.g. a second,
    /// different decision was observed for the same round).
    ConsensusContract {
        /// The consensus instance / broadcast round concerned.
        round: Round,
        /// Human-readable description of the violation.
        detail: String,
    },
    /// The protocol configuration is invalid (e.g. a zero timer period).
    InvalidConfig(String),
    /// An operation timed out (only produced by the thread runtime; the
    /// simulator never times out).
    Timeout(String),
    /// The runtime driving the protocol has shut down.
    Shutdown,
}

impl AbcastError {
    /// Creates a storage error from any displayable cause.
    pub fn storage(cause: impl fmt::Display) -> Self {
        AbcastError::Storage(cause.to_string())
    }

    /// Creates an invalid-configuration error.
    pub fn invalid_config(detail: impl Into<String>) -> Self {
        AbcastError::InvalidConfig(detail.into())
    }

    /// Creates a consensus-contract violation error.
    pub fn consensus_contract(round: Round, detail: impl Into<String>) -> Self {
        AbcastError::ConsensusContract {
            round,
            detail: detail.into(),
        }
    }
}

impl fmt::Display for AbcastError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AbcastError::Storage(msg) => write!(f, "stable storage error: {msg}"),
            AbcastError::Corrupt(err) => write!(f, "corrupt record: {err}"),
            AbcastError::ProcessDown(p) => write!(f, "process {p} is down"),
            AbcastError::UnknownProcess(p) => write!(f, "process {p} is not part of the system"),
            AbcastError::ConsensusContract { round, detail } => {
                write!(f, "consensus contract violated in round {round}: {detail}")
            }
            AbcastError::InvalidConfig(detail) => write!(f, "invalid configuration: {detail}"),
            AbcastError::Timeout(what) => write!(f, "timed out waiting for {what}"),
            AbcastError::Shutdown => write!(f, "runtime has shut down"),
        }
    }
}

impl std::error::Error for AbcastError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            AbcastError::Corrupt(err) => Some(err),
            _ => None,
        }
    }
}

impl From<DecodeError> for AbcastError {
    fn from(err: DecodeError) -> Self {
        AbcastError::Corrupt(err)
    }
}

impl From<std::io::Error> for AbcastError {
    fn from(err: std::io::Error) -> Self {
        AbcastError::Storage(err.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error;

    #[test]
    fn display_messages_are_informative() {
        let e = AbcastError::ProcessDown(ProcessId::new(3));
        assert!(e.to_string().contains("p3"));
        let e = AbcastError::consensus_contract(Round::new(7), "two decisions");
        assert!(e.to_string().contains("round 7"));
        assert!(e.to_string().contains("two decisions"));
        let e = AbcastError::Timeout("decision".into());
        assert!(e.to_string().contains("decision"));
        assert!(AbcastError::Shutdown.to_string().contains("shut down"));
    }

    #[test]
    fn decode_error_converts_and_chains_source() {
        let decode = DecodeError::invalid("bad tag");
        let err: AbcastError = decode.clone().into();
        assert_eq!(err, AbcastError::Corrupt(decode));
        assert!(err.source().is_some());
    }

    #[test]
    fn io_error_converts_to_storage() {
        let io = std::io::Error::other("disk gone");
        let err: AbcastError = io.into();
        assert!(matches!(err, AbcastError::Storage(msg) if msg.contains("disk gone")));
    }

    #[test]
    fn helper_constructors() {
        assert!(matches!(
            AbcastError::storage("oops"),
            AbcastError::Storage(m) if m == "oops"
        ));
        assert!(matches!(
            AbcastError::invalid_config("zero period"),
            AbcastError::InvalidConfig(m) if m == "zero period"
        ));
    }
}
