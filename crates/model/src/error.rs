//! Error type for model-layer operations.

use crate::UserId;

/// Errors raised while building or mutating the LBS model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModelError {
    /// A user id appeared twice in one location database snapshot.
    DuplicateUser(UserId),
    /// An operation referenced a user absent from the snapshot.
    UnknownUser(UserId),
    /// A location fell outside the map under consideration.
    OutOfBounds {
        /// The offending user.
        user: UserId,
        /// The offending coordinates.
        x: i64,
        /// The offending coordinates.
        y: i64,
    },
    /// A serialized snapshot could not be decoded.
    CorruptSnapshot(String),
    /// Policy columns that break the representation's invariants.
    InvalidPolicy(String),
}

impl std::fmt::Display for ModelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModelError::DuplicateUser(u) => write!(f, "duplicate user {u} in snapshot"),
            ModelError::UnknownUser(u) => write!(f, "unknown user {u}"),
            ModelError::OutOfBounds { user, x, y } => {
                write!(f, "user {user} at ({x}, {y}) is outside the map")
            }
            ModelError::CorruptSnapshot(msg) => write!(f, "corrupt snapshot: {msg}"),
            ModelError::InvalidPolicy(msg) => write!(f, "invalid policy columns: {msg}"),
        }
    }
}

impl std::error::Error for ModelError {}
