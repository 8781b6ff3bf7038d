//! Storage error types.

use crate::page::{PageId, SizeClass};
use std::fmt;
use std::io;

/// Result alias for storage operations.
pub type Result<T> = std::result::Result<T, StorageError>;

/// Errors produced by the paged storage layer.
#[derive(Debug)]
pub enum StorageError {
    /// An underlying I/O failure.
    Io(io::Error),
    /// A page id is not present in the page directory.
    PageNotFound(PageId),
    /// A page failed validation on read (bad magic, checksum, or length).
    Corrupt {
        /// The page that failed validation.
        page: PageId,
        /// What failed.
        reason: String,
    },
    /// A payload does not fit within the page's size class.
    PayloadTooLarge {
        /// Requested payload length in bytes.
        requested: usize,
        /// Maximum payload capacity of the size class.
        capacity: usize,
        /// The size class in question.
        size_class: SizeClass,
    },
    /// A metadata file is malformed or from an incompatible version.
    BadMeta(String),
    /// A decoding operation ran past the end of its input.
    Decode(String),
}

impl StorageError {
    /// Whether this error originates from a corrupted on-disk image (torn
    /// write, bit rot, partial meta) rather than from misuse or transient
    /// I/O. Corruption errors are the ones recovery
    /// ([`DiskManager::open_repair`](crate::DiskManager::open_repair)) can
    /// act on.
    pub fn is_corruption(&self) -> bool {
        matches!(
            self,
            StorageError::Corrupt { .. } | StorageError::BadMeta(_) | StorageError::Decode(_)
        )
    }

    /// Whether this error was produced by a [`crate::FaultInjector`] rather
    /// than by the real I/O stack. Crash harnesses use this to tell a
    /// simulated power cut from a genuine storage bug.
    pub fn is_injected(&self) -> bool {
        matches!(self, StorageError::Io(e) if e.to_string().contains(crate::fault::INJECTED_MARKER))
    }
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::Io(e) => write!(f, "i/o error: {e}"),
            StorageError::PageNotFound(id) => write!(f, "page {id:?} not found"),
            StorageError::Corrupt { page, reason } => {
                write!(f, "page {page:?} corrupt: {reason}")
            }
            StorageError::PayloadTooLarge {
                requested,
                capacity,
                size_class,
            } => write!(
                f,
                "payload of {requested} bytes exceeds {capacity}-byte capacity of {size_class:?}"
            ),
            StorageError::BadMeta(msg) => write!(f, "bad metadata: {msg}"),
            StorageError::Decode(msg) => write!(f, "decode error: {msg}"),
        }
    }
}

impl std::error::Error for StorageError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StorageError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for StorageError {
    fn from(e: io::Error) -> Self {
        StorageError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats() {
        let e = StorageError::PageNotFound(PageId(7));
        assert!(e.to_string().contains("not found"));
        let e = StorageError::PayloadTooLarge {
            requested: 2000,
            capacity: 1000,
            size_class: SizeClass::new(0),
        };
        assert!(e.to_string().contains("2000"));
    }

    #[test]
    fn io_error_source_preserved() {
        let e: StorageError = io::Error::other("boom").into();
        assert!(std::error::Error::source(&e).is_some());
    }

    #[test]
    fn corruption_and_injection_classifiers() {
        let corrupt = StorageError::Corrupt {
            page: PageId(1),
            reason: "checksum".into(),
        };
        assert!(corrupt.is_corruption());
        assert!(!corrupt.is_injected());
        assert!(StorageError::BadMeta("torn".into()).is_corruption());
        let real_io: StorageError = io::Error::other("boom").into();
        assert!(!real_io.is_corruption());
        assert!(!real_io.is_injected());
        let injected: StorageError = crate::fault::injected_error("torn write").into();
        assert!(injected.is_injected());
    }
}
