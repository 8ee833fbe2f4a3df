//! Error types shared across the workspace.

use std::fmt;

use crate::codec::DecodeError;
use crate::id::ProcessId;

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
    /// An operation referenced a process outside the configured set.
    UnknownProcess(ProcessId),
}

impl AbcastError {
    /// Creates a storage error from any displayable cause.
    pub fn storage(cause: impl fmt::Display) -> Self {
        AbcastError::Storage(cause.to_string())
    }
}

impl fmt::Display for AbcastError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AbcastError::Storage(msg) => write!(f, "stable storage error: {msg}"),
            AbcastError::Corrupt(err) => write!(f, "corrupt record: {err}"),
            AbcastError::UnknownProcess(p) => write!(f, "process {p} is not part of the system"),
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
        let e = AbcastError::UnknownProcess(ProcessId::new(3));
        assert!(e.to_string().contains("p3"));
        let e = AbcastError::storage("disk full");
        assert!(e.to_string().contains("disk full"));
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
    }
}
