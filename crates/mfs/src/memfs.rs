//! In-memory backend with hard-link support.

use crate::{Backend, DataRef, StoreError, StoreResult};
use std::collections::HashMap;

#[derive(Debug, Default, Clone)]
struct Inode {
    data: Vec<u8>,
    len: u64,
    nlink: u32,
}

/// An in-memory file system with hard links.
///
/// With `retain_content` off, only file lengths are tracked (reads return
/// zeros) — the mode used by the simulation, where bodies are size-only
/// and nothing is read back (an MFS store over it cannot be: its key
/// files are its index).
///
/// `Clone` snapshots the whole file system (hard links preserved) — the
/// crash tests clone a post-crash image to repair it several independent
/// ways.
///
/// # Example
///
/// ```
/// use spamaware_mfs::{Backend, DataRef, MemFs};
/// let mut fs = MemFs::new();
/// let off = fs.append("box/a", DataRef::Bytes(b"hello"))?;
/// assert_eq!(off, 0);
/// assert_eq!(fs.read_at("box/a", 1, 3)?, b"ell");
/// # Ok::<(), spamaware_mfs::StoreError>(())
/// ```
#[derive(Debug, Default, Clone)]
pub struct MemFs {
    paths: HashMap<String, usize>,
    inodes: Vec<Inode>,
    retain: bool,
}

impl MemFs {
    /// Creates an empty in-memory file system that retains content.
    pub fn new() -> MemFs {
        MemFs {
            paths: HashMap::new(),
            inodes: Vec::new(),
            retain: true,
        }
    }

    /// Creates a size-only file system: lengths are tracked, content is
    /// discarded, reads return zeros. Used by cost simulations to avoid
    /// materializing gigabytes of message bodies.
    pub fn size_only() -> MemFs {
        MemFs {
            retain: false,
            ..MemFs::new()
        }
    }

    /// Number of live inodes (hard-linked paths share one).
    pub fn inode_count(&self) -> usize {
        self.inodes.iter().filter(|i| i.nlink > 0).count()
    }

    /// Total bytes across live inodes (each counted once regardless of
    /// link count) — the "disk space" statistic.
    pub fn total_bytes(&self) -> u64 {
        self.inodes
            .iter()
            .filter(|i| i.nlink > 0)
            .map(|i| i.len)
            .sum()
    }

    fn inode_of(&mut self, path: &str) -> StoreResult<usize> {
        self.paths
            .get(path)
            .copied()
            .ok_or_else(|| StoreError::NotFound(path.to_owned()))
    }

    fn create_inode(&mut self) -> usize {
        self.inodes.push(Inode {
            nlink: 1,
            ..Inode::default()
        });
        self.inodes.len() - 1
    }
}

impl Backend for MemFs {
    fn create(&mut self, path: &str) -> StoreResult<()> {
        if self.paths.contains_key(path) {
            return Err(StoreError::AlreadyExists(path.to_owned()));
        }
        let ino = self.create_inode();
        self.paths.insert(path.to_owned(), ino);
        Ok(())
    }

    fn append(&mut self, path: &str, data: DataRef<'_>) -> StoreResult<u64> {
        let ino = match self.paths.get(path) {
            Some(&i) => i,
            None => {
                let i = self.create_inode();
                self.paths.insert(path.to_owned(), i);
                i
            }
        };
        let inode = &mut self.inodes[ino];
        let offset = inode.len;
        inode.len += data.len();
        if self.retain {
            match data {
                DataRef::Bytes(b) => inode.data.extend_from_slice(b),
                DataRef::Zeros(n) => inode.data.resize(inode.data.len() + n as usize, 0),
            }
        }
        Ok(offset)
    }

    fn read_at(&mut self, path: &str, offset: u64, len: u64) -> StoreResult<Vec<u8>> {
        let ino = self.inode_of(path)?;
        let inode = &self.inodes[ino];
        if offset + len > inode.len {
            return Err(StoreError::OutOfRange(format!(
                "{path}: {offset}+{len} > {}",
                inode.len
            )));
        }
        if self.retain {
            Ok(inode.data[offset as usize..(offset + len) as usize].to_vec())
        } else {
            Ok(vec![0u8; len as usize])
        }
    }

    fn len(&mut self, path: &str) -> StoreResult<u64> {
        let ino = self.inode_of(path)?;
        Ok(self.inodes[ino].len)
    }

    fn link(&mut self, src: &str, dst: &str) -> StoreResult<()> {
        if self.paths.contains_key(dst) {
            return Err(StoreError::AlreadyExists(dst.to_owned()));
        }
        let ino = self.inode_of(src)?;
        self.inodes[ino].nlink += 1;
        self.paths.insert(dst.to_owned(), ino);
        Ok(())
    }

    fn remove(&mut self, path: &str) -> StoreResult<()> {
        let ino = self
            .paths
            .remove(path)
            .ok_or_else(|| StoreError::NotFound(path.to_owned()))?;
        let inode = &mut self.inodes[ino];
        inode.nlink -= 1;
        if inode.nlink == 0 {
            inode.data = Vec::new();
            inode.len = 0;
        }
        Ok(())
    }

    fn truncate(&mut self, path: &str, len: u64) -> StoreResult<()> {
        let ino = self.inode_of(path)?;
        let inode = &mut self.inodes[ino];
        if len > inode.len {
            return Err(StoreError::OutOfRange(format!(
                "{path}: truncate to {len} > {}",
                inode.len
            )));
        }
        inode.len = len;
        if self.retain {
            inode.data.truncate(len as usize);
        }
        Ok(())
    }

    fn exists(&mut self, path: &str) -> bool {
        self.paths.contains_key(path)
    }

    fn list(&mut self, prefix: &str) -> StoreResult<Vec<String>> {
        let mut out: Vec<String> = self
            .paths
            .keys()
            .filter(|p| p.starts_with(prefix))
            .cloned()
            .collect();
        out.sort_unstable();
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_then_append_reads_back() -> Result<(), Box<dyn std::error::Error>> {
        let mut fs = MemFs::new();
        fs.create("f")?;
        assert_eq!(fs.append("f", DataRef::Bytes(b"ab"))?, 0);
        assert_eq!(fs.append("f", DataRef::Bytes(b"cd"))?, 2);
        assert_eq!(fs.read_at("f", 0, 4)?, b"abcd");
        assert_eq!(fs.len("f")?, 4);
        Ok(())
    }

    #[test]
    fn append_creates_implicitly() -> Result<(), Box<dyn std::error::Error>> {
        let mut fs = MemFs::new();
        fs.append("implicit", DataRef::Bytes(b"x"))?;
        assert!(fs.exists("implicit"));
        Ok(())
    }

    #[test]
    fn create_rejects_duplicates() -> Result<(), Box<dyn std::error::Error>> {
        let mut fs = MemFs::new();
        fs.create("f")?;
        assert!(matches!(fs.create("f"), Err(StoreError::AlreadyExists(_))));
        Ok(())
    }

    #[test]
    fn read_bounds_checked() -> Result<(), Box<dyn std::error::Error>> {
        let mut fs = MemFs::new();
        fs.append("f", DataRef::Bytes(b"abc"))?;
        assert!(matches!(
            fs.read_at("f", 1, 3),
            Err(StoreError::OutOfRange(_))
        ));
        assert!(matches!(
            fs.read_at("missing", 0, 1),
            Err(StoreError::NotFound(_))
        ));
        Ok(())
    }

    #[test]
    fn hard_links_share_content() -> Result<(), Box<dyn std::error::Error>> {
        let mut fs = MemFs::new();
        fs.append("a", DataRef::Bytes(b"shared"))?;
        fs.link("a", "b")?;
        assert_eq!(fs.read_at("b", 0, 6)?, b"shared");
        assert_eq!(fs.inode_count(), 1);
        assert!(fs.exists("a") && fs.exists("b"));
        // Appending through one name is visible through the other.
        fs.append("b", DataRef::Bytes(b"!"))?;
        assert_eq!(fs.len("a")?, 7);
        Ok(())
    }

    #[test]
    fn remove_honours_link_counts() -> Result<(), Box<dyn std::error::Error>> {
        let mut fs = MemFs::new();
        fs.append("a", DataRef::Bytes(b"x"))?;
        fs.link("a", "b")?;
        fs.remove("a")?;
        assert!(!fs.exists("a"));
        assert_eq!(fs.read_at("b", 0, 1)?, b"x");
        fs.remove("b")?;
        assert_eq!(fs.inode_count(), 0);
        assert_eq!(fs.total_bytes(), 0);
        Ok(())
    }

    #[test]
    fn link_to_taken_name_fails() -> Result<(), Box<dyn std::error::Error>> {
        let mut fs = MemFs::new();
        fs.append("a", DataRef::Bytes(b"x"))?;
        fs.append("b", DataRef::Bytes(b"y"))?;
        assert!(matches!(
            fs.link("a", "b"),
            Err(StoreError::AlreadyExists(_))
        ));
        Ok(())
    }

    #[test]
    fn size_only_mode_tracks_lengths_not_bytes() -> Result<(), Box<dyn std::error::Error>> {
        let mut fs = MemFs::size_only();
        fs.append("f", DataRef::Zeros(1 << 20))?;
        assert_eq!(fs.len("f")?, 1 << 20);
        assert_eq!(fs.read_at("f", 0, 4)?, vec![0; 4]);
        assert_eq!(fs.total_bytes(), 1 << 20);
        Ok(())
    }

    #[test]
    fn total_bytes_counts_linked_inode_once() -> Result<(), Box<dyn std::error::Error>> {
        let mut fs = MemFs::new();
        fs.append("a", DataRef::Bytes(b"12345"))?;
        fs.link("a", "b")?;
        assert_eq!(fs.total_bytes(), 5);
        Ok(())
    }
}
