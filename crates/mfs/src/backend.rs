//! The byte-oriented storage backend beneath every mailbox layout.
//!
//! MFS is "a simple application-level extension to any conventional
//! byte-oriented file system" (paper §6.1); the [`Backend`] trait is that
//! conventional file system. Two implementations store bytes:
//! [`crate::MemFs`] (in-memory, with optional content retention) and
//! [`crate::RealDir`] (actual files via `std::fs`). Two wrap another
//! backend: [`crate::SyncBackend`] shares one between handles, and
//! [`crate::Intercept`] puts a [`crate::Policy`] in front of one — the
//! fault plan of [`crate::FaultyBackend`], the crash point of
//! [`crate::CrashBackend`], the operation/cost accounting of
//! [`crate::Metered`] that drives Figs. 10/11. Nothing else implements the
//! trait, so a rule about every write is written in `intercept.rs` once.

use crate::StoreResult;

/// Bytes to write: either real content or a size-only placeholder.
///
/// The discrete-event simulation knows message *sizes* but never
/// materializes bodies; `Zeros(n)` lets it drive the same storage code as
/// the live server without allocating.
#[derive(Debug, Clone, Copy)]
pub enum DataRef<'a> {
    /// Actual content.
    Bytes(&'a [u8]),
    /// `n` zero bytes (size-only simulation).
    Zeros(u64),
}

impl DataRef<'_> {
    /// Length in bytes.
    pub fn len(&self) -> u64 {
        match self {
            DataRef::Bytes(b) => b.len() as u64,
            DataRef::Zeros(n) => *n,
        }
    }

    /// Whether the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The first `n` bytes (all of them if there are fewer).
    pub fn prefix(self, n: u64) -> Self {
        match self {
            DataRef::Bytes(b) => DataRef::Bytes(&b[..b.len().min(n as usize)]),
            DataRef::Zeros(len) => DataRef::Zeros(len.min(n)),
        }
    }

    /// Materializes the content (zero-filled for [`DataRef::Zeros`]).
    pub fn to_vec(&self) -> Vec<u8> {
        match self {
            DataRef::Bytes(b) => b.to_vec(),
            DataRef::Zeros(n) => vec![0u8; *n as usize],
        }
    }
}

impl<'a> From<&'a [u8]> for DataRef<'a> {
    fn from(b: &'a [u8]) -> DataRef<'a> {
        DataRef::Bytes(b)
    }
}

/// A minimal byte-oriented file system.
///
/// Paths are plain `/`-separated strings relative to the backend root;
/// intermediate directories are implicit (created on demand by
/// implementations that have real directories).
pub trait Backend {
    /// Creates an empty file.
    ///
    /// # Errors
    ///
    /// [`crate::StoreError::AlreadyExists`] if the path is taken.
    fn create(&mut self, path: &str) -> StoreResult<()>;

    /// Appends to a file, creating it if needed. Returns the offset at
    /// which the data landed.
    fn append(&mut self, path: &str, data: DataRef<'_>) -> StoreResult<u64>;

    /// Reads `len` bytes at `offset`.
    ///
    /// # Errors
    ///
    /// [`crate::StoreError::NotFound`] for a missing file;
    /// [`crate::StoreError::OutOfRange`] if the range exceeds the file.
    fn read_at(&mut self, path: &str, offset: u64, len: u64) -> StoreResult<Vec<u8>>;

    /// Current length of a file.
    fn len(&mut self, path: &str) -> StoreResult<u64>;

    /// Creates a hard link `dst` to existing file `src`.
    fn link(&mut self, src: &str, dst: &str) -> StoreResult<()>;

    /// Removes a path (content survives under other hard links).
    fn remove(&mut self, path: &str) -> StoreResult<()>;

    /// Shrinks a file to exactly `len` bytes (crash recovery: a torn
    /// trailing record is cut off so the file ends on a frame boundary).
    ///
    /// # Errors
    ///
    /// [`crate::StoreError::NotFound`] for a missing file;
    /// [`crate::StoreError::OutOfRange`] if `len` exceeds the current
    /// length — truncation never grows a file.
    fn truncate(&mut self, path: &str, len: u64) -> StoreResult<()>;

    /// Whether a path exists.
    fn exists(&mut self, path: &str) -> bool;

    /// Lists existing paths that start with `prefix`, sorted.
    fn list(&mut self, prefix: &str) -> StoreResult<Vec<String>>;

    /// Replaces a file's content wholesale (used by mbox deletion, which
    /// rewrites the mailbox). Creates the file if missing.
    fn replace(&mut self, path: &str, data: DataRef<'_>) -> StoreResult<()> {
        let _ = self.remove(path);
        self.append(path, data)?;
        Ok(())
    }

    /// Appends a framed record (`header` immediately followed by `body`)
    /// as one logical write — what a delivery agent does with `writev`.
    /// Returns the offset of the header.
    fn append_record(&mut self, path: &str, header: &[u8], body: DataRef<'_>) -> StoreResult<u64> {
        let off = self.append(path, DataRef::Bytes(header))?;
        self.append(path, body)?;
        Ok(off)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dataref_lengths() {
        assert_eq!(DataRef::Bytes(b"abc").len(), 3);
        assert_eq!(DataRef::Zeros(10).len(), 10);
        assert!(DataRef::Bytes(b"").is_empty());
        assert!(!DataRef::Zeros(1).is_empty());
        assert_eq!(DataRef::Bytes(b"abc").prefix(2).to_vec(), b"ab");
        assert_eq!(DataRef::Bytes(b"abc").prefix(9).len(), 3);
        assert_eq!(DataRef::Zeros(10).prefix(4).len(), 4);
    }

    #[test]
    fn dataref_materializes() {
        assert_eq!(DataRef::Bytes(b"xy").to_vec(), b"xy".to_vec());
        assert_eq!(DataRef::Zeros(3).to_vec(), vec![0, 0, 0]);
    }

    #[test]
    fn dataref_from_slice() {
        let d: DataRef<'_> = b"hello"[..].into();
        assert_eq!(d.len(), 5);
    }
}
