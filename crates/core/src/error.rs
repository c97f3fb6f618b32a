//! Error types of the runtime.

use std::fmt;

/// Result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, Error>;

/// Errors surfaced by the runtime API.
///
/// Most misuse (accessing undeclared data, writing through a read access) is
/// reported by panicking inside the offending task because that mirrors the
/// undefined-behaviour boundary of the original C pragmas while keeping Rust
/// memory safety; recoverable conditions are reported through this enum.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// The runtime has already been shut down; no further tasks may be
    /// spawned.
    ShutDown,
    /// A task body panicked. The payload is the task name (if any) and a
    /// best-effort rendering of the panic message.
    TaskPanicked {
        /// Name given to the task at spawn time, if any.
        task: String,
        /// Panic payload rendered to a string when possible.
        message: String,
    },
    /// A configuration value was invalid (e.g. zero workers).
    InvalidConfig(String),
    /// A data handle was still shared when exclusive ownership was requested
    /// (e.g. [`crate::Runtime::into_inner`] while tasks still hold clones).
    StillShared,
    /// Part of the task graph was poisoned: a task panicked or was
    /// cancelled, and every transitive successor was retired without running
    /// (see the README's "Failure semantics"). `origin` is the first task
    /// that introduced the poison. Surfaced by
    /// [`crate::Runtime::try_taskwait`] and the `try_into_*` unwrappers so
    /// partially computed results are never committed silently.
    Poisoned {
        /// The panicked or cancelled task the poison originated from.
        origin: crate::TaskId,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::ShutDown => write!(f, "runtime has been shut down"),
            Error::TaskPanicked { task, message } => {
                write!(f, "task `{task}` panicked: {message}")
            }
            Error::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            Error::StillShared => write!(f, "data handle is still shared"),
            Error::Poisoned { origin } => write!(
                f,
                "task graph poisoned by {origin}: its transitive successors \
                 were retired without running"
            ),
        }
    }
}

impl std::error::Error for Error {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_shutdown() {
        assert_eq!(Error::ShutDown.to_string(), "runtime has been shut down");
    }

    #[test]
    fn display_task_panicked() {
        let e = Error::TaskPanicked {
            task: "t".into(),
            message: "boom".into(),
        };
        assert_eq!(e.to_string(), "task `t` panicked: boom");
    }

    #[test]
    fn display_invalid_config() {
        let e = Error::InvalidConfig("workers must be > 0".into());
        assert!(e.to_string().contains("workers must be > 0"));
    }

    #[test]
    fn display_poisoned() {
        let e = Error::Poisoned {
            origin: crate::TaskId::fresh(),
        };
        assert!(e.to_string().contains("poisoned"));
    }

    #[test]
    fn error_is_std_error() {
        fn assert_err<E: std::error::Error>() {}
        assert_err::<Error>();
    }
}
