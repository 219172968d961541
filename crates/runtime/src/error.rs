//! Typed outcomes of the service runtime.

use lbs_core::CoreError;
use lbs_model::{ModelError, UserId};
use std::path::{Path, PathBuf};

/// Everything that can go wrong in the durable service runtime.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RuntimeError {
    /// An I/O operation on the WAL or a checkpoint failed.
    Io {
        /// What was being attempted (`"open"`, `"append"`, `"rename"`, …).
        op: &'static str,
        /// The file or directory involved.
        path: PathBuf,
        /// The underlying error, stringified (io::Error is not `Clone`/`Eq`).
        message: String,
    },
    /// A checkpoint file failed structural validation (recovery skips it
    /// and falls back to an older checkpoint plus a longer WAL replay).
    CorruptCheckpoint {
        /// The offending file.
        path: PathBuf,
        /// Why decoding rejected it.
        message: String,
    },
    /// Recovery was requested on a directory with no valid checkpoint.
    NoState(PathBuf),
    /// Creation was requested on a directory that already holds runtime
    /// state; use recovery instead of clobbering it.
    AlreadyInitialized(PathBuf),
    /// An anonymization-core failure (DP, tree, insufficient population).
    Core(CoreError),
    /// A model-layer failure (invalid churn batch, corrupt snapshot).
    Model(ModelError),
    /// The request's deadline expired before the work completed. DP
    /// progress made so far is kept; the degradation ladder decides what
    /// the sender receives instead.
    DeadlineExceeded,
    /// A transient failure persisted through every backoff attempt.
    RetriesExhausted {
        /// Attempts made (initial try plus retries).
        attempts: u32,
        /// The final attempt's error, stringified.
        last: String,
    },
    /// A deterministic fault-injection hook fired (tests only; carries
    /// the injection site).
    FaultInjected(String),
    /// Bottom rung of the degradation ladder: the request was shed
    /// because no rung could answer without weakening k-anonymity.
    Shed {
        /// The sender whose request was rejected.
        user: UserId,
    },
    /// The user is not present in the location database.
    UnknownUser(UserId),
    /// A sharded operation named a shard index outside the plan.
    NoSuchShard {
        /// The offending index.
        shard: usize,
        /// How many shards the plan holds.
        shards: usize,
    },
    /// The target shard is crashed and not yet recovered; other shards
    /// keep serving (shared-nothing isolation), but requests routed here
    /// fail until [`recover_shard`](crate::ShardedRuntime::recover_shard)
    /// completes.
    ShardDown {
        /// The crashed shard.
        shard: usize,
    },
    /// Bottom rung of the ENOSPC ladder: the disk ran out of space, an
    /// emergency retention GC could not free enough, and the write was
    /// shed. Durable state is unchanged (the partial frame was rolled
    /// back) — never a panic, never a silent drop.
    StorageExhausted {
        /// What was being attempted (`"append"`, `"checkpoint"`, …).
        op: &'static str,
        /// The file that could not be written.
        path: PathBuf,
    },
    /// One shard's step of a sharded fan-out (a pump, epoch commit or
    /// drain commits every up shard at once) failed. When several shards
    /// fail, this names the first in ring order; every other shard's
    /// work is accounted before it is returned.
    Shard {
        /// The failing shard.
        shard: usize,
        /// What went wrong on it.
        source: Box<RuntimeError>,
    },
}

impl RuntimeError {
    /// The error itself, or the one a [`Shard`](RuntimeError::Shard)
    /// wrapper carries: what classifies it.
    pub fn inner(&self) -> &RuntimeError {
        match self {
            RuntimeError::Shard { source, .. } => source.inner(),
            other => other,
        }
    }

    /// Whether a retry with backoff could plausibly succeed: injected
    /// faults and worker panics are transient; corruption, deadline
    /// expiry, and validation failures are not.
    pub fn is_transient(&self) -> bool {
        matches!(
            self.inner(),
            RuntimeError::FaultInjected(_)
                | RuntimeError::Core(CoreError::WorkerPanic(_))
                | RuntimeError::Core(CoreError::StaleMatrix(_))
        )
    }

    /// Whether this is an out-of-space I/O failure — the trigger for the
    /// ENOSPC ladder (emergency GC, then shed as
    /// [`StorageExhausted`](RuntimeError::StorageExhausted)).
    pub fn is_storage_full(&self) -> bool {
        matches!(
            self.inner(),
            RuntimeError::Io { message, .. }
                if message.contains("ENOSPC") || message.contains("No space left")
        )
    }
}

/// Wraps an `io::Error` with the operation and path that hit it.
pub fn io_err(op: &'static str, path: &Path, e: std::io::Error) -> RuntimeError {
    RuntimeError::Io { op, path: path.to_path_buf(), message: e.to_string() }
}

impl std::fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RuntimeError::Io { op, path, message } => {
                write!(f, "{op} failed on {}: {message}", path.display())
            }
            RuntimeError::CorruptCheckpoint { path, message } => {
                write!(f, "corrupt checkpoint {}: {message}", path.display())
            }
            RuntimeError::NoState(dir) => {
                write!(f, "no valid checkpoint found in {}", dir.display())
            }
            RuntimeError::AlreadyInitialized(dir) => {
                write!(f, "{} already holds runtime state; recover instead", dir.display())
            }
            RuntimeError::Core(e) => write!(f, "core error: {e}"),
            RuntimeError::Model(e) => write!(f, "model error: {e}"),
            RuntimeError::DeadlineExceeded => write!(f, "deadline expired before completion"),
            RuntimeError::RetriesExhausted { attempts, last } => {
                write!(f, "still failing after {attempts} attempts: {last}")
            }
            RuntimeError::FaultInjected(site) => write!(f, "injected fault at {site}"),
            RuntimeError::Shed { user } => {
                write!(f, "request from {user:?} shed: no degradation rung preserves anonymity")
            }
            RuntimeError::UnknownUser(user) => write!(f, "unknown user {user:?}"),
            RuntimeError::NoSuchShard { shard, shards } => {
                write!(f, "shard {shard} does not exist (plan has {shards})")
            }
            RuntimeError::ShardDown { shard } => {
                write!(f, "shard {shard} is down; recover it before routing to it")
            }
            RuntimeError::StorageExhausted { op, path } => {
                write!(
                    f,
                    "storage exhausted: {op} on {} shed after emergency GC freed too little",
                    path.display()
                )
            }
            RuntimeError::Shard { shard, source } => write!(f, "shard {shard}: {source}"),
        }
    }
}

impl std::error::Error for RuntimeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RuntimeError::Shard { source, .. } => Some(source.as_ref()),
            _ => None,
        }
    }
}

impl From<CoreError> for RuntimeError {
    fn from(e: CoreError) -> Self {
        RuntimeError::Core(e)
    }
}

impl From<ModelError> for RuntimeError {
    fn from(e: ModelError) -> Self {
        RuntimeError::Model(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_shard_wrapper_classifies_as_its_source() {
        let wrap = |e: RuntimeError| RuntimeError::Shard { shard: 2, source: Box::new(e) };
        let transient = wrap(RuntimeError::FaultInjected("commit".into()));
        assert!(transient.is_transient());
        assert_eq!(transient.inner(), &RuntimeError::FaultInjected("commit".into()));
        let full = wrap(io_err(
            "append",
            Path::new("wal.log"),
            std::io::Error::new(std::io::ErrorKind::StorageFull, "No space left on device"),
        ));
        assert!(full.is_storage_full() && !full.is_transient());
        assert!(full.to_string().starts_with("shard 2: append failed"), "{full}");
        assert!(std::error::Error::source(&full).is_some());
    }
}
