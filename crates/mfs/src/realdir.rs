//! Real-filesystem backend over `std::fs`.
//!
//! Files stay open between calls: a bounded table of handles (DESIGN.md
//! §11) turns an append into one `write` and a read into `fstat` + `pread`,
//! instead of resolving, opening and closing the path every time.

use crate::{Backend, DataRef, StoreError, StoreResult};
use std::fs::{self, File, OpenOptions};
use std::io::{self, ErrorKind, Write};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};

/// `errno` of "too many open files" for this process (Linux).
const EMFILE: i32 = 24;

/// One kept-open file.
#[derive(Debug)]
struct Handle {
    path: String,
    /// Opened `O_RDWR | O_APPEND`: writes land at end of file whatever
    /// anyone else did to it; reads are positional.
    file: File,
    /// End of file as this instance's own appends left it — the offset
    /// the next append reports. Right because a spool file has exactly one
    /// appending `RealDir` (its partition's), and nothing but appends
    /// moves the end of a file whose path the table still holds.
    end: u64,
}

/// A backend storing files under a root directory on the real filesystem.
///
/// Used by the live SMTP server and by integration tests; the same mailbox
/// layouts that run on [`crate::MemFs`] in simulation run here against
/// actual disks.
///
/// An instance assumes it is the only *writer* of the files it appends
/// to for as long as it lives: one process per spool, one partition per
/// file. Other instances may read those files (and see every completed
/// append); offline tools run on a stopped spool.
///
/// # Example
///
/// ```no_run
/// use spamaware_mfs::{Backend, DataRef, RealDir};
/// let mut fs = RealDir::new("/tmp/spamaware-store")?;
/// fs.append("inbox/mbox", DataRef::Bytes(b"mail"))?;
/// # Ok::<(), spamaware_mfs::StoreError>(())
/// ```
#[derive(Debug)]
pub struct RealDir {
    root: PathBuf,
    /// Open files, most recently used first; at most [`RealDir::MAX_OPEN`].
    open: Vec<Handle>,
}

impl RealDir {
    /// Files one instance keeps open at most. Fixed by fd arithmetic, not
    /// tuned: the live server runs 9 instances (8 shards + the shared
    /// partition), and 9 × 48 = 432 spool fds, plus `max_connections` =
    /// 512 sockets, plus a few dozen listeners, epoll sets and wake pipes,
    /// fit the usual 1024 soft limit (DESIGN.md §11).
    pub const MAX_OPEN: usize = 48;

    /// Opens (creating if needed) a store rooted at `root`.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors creating the root.
    pub fn new(root: impl AsRef<Path>) -> StoreResult<RealDir> {
        let root = root.as_ref().to_path_buf();
        fs::create_dir_all(&root)?;
        Ok(RealDir {
            root,
            open: Vec::with_capacity(Self::MAX_OPEN),
        })
    }

    fn resolve(&self, path: &str) -> StoreResult<PathBuf> {
        // Reject traversal; mailbox names are server-generated but the
        // live server feeds client-influenced ids through here too.
        if path.split('/').any(|c| c == ".." || c.is_empty()) || path.starts_with('/') {
            return Err(StoreError::Io(format!("illegal path: {path:?}")));
        }
        Ok(self.root.join(path))
    }

    /// The open handle for `path`, moved to the front of the table. On a
    /// miss the file is opened — created, with its parent directory, only
    /// if `create` — and the least recently used handle makes room.
    fn handle(&mut self, path: &str, create: bool) -> StoreResult<&mut Handle> {
        if let Some(at) = self.open.iter().position(|h| h.path == path) {
            self.open[..=at].rotate_right(1);
        } else {
            let full = self.resolve(path)?;
            let file = match open_file(&full, create) {
                Err(e) if e.raw_os_error() == Some(EMFILE) => {
                    // The process is out of descriptors: give ours back
                    // and try once more.
                    self.open.clear();
                    open_file(&full, create)
                }
                other => other,
            }
            .map_err(|e| match e.kind() {
                ErrorKind::NotFound => StoreError::NotFound(path.to_owned()),
                _ => e.into(),
            })?;
            let end = file.metadata()?.len();
            self.open.truncate(Self::MAX_OPEN - 1);
            self.open.insert(
                0,
                Handle {
                    path: path.to_owned(),
                    file,
                    end,
                },
            );
        }
        Ok(&mut self.open[0])
    }

    /// Closes `path`'s handle, if held: the path is about to stop naming
    /// the file (or the length) the handle knows.
    fn forget(&mut self, path: &str) {
        self.open.retain(|h| h.path != path);
    }
}

fn ensure_parent(full: &Path) -> io::Result<()> {
    match full.parent() {
        Some(parent) => fs::create_dir_all(parent),
        None => Ok(()),
    }
}

/// Opens `full` the way the table holds files, creating it — and, when
/// it is the first file under its directory, the directory — if `create`.
fn open_file(full: &Path, create: bool) -> io::Result<File> {
    let mut options = OpenOptions::new();
    options.read(true).append(true).create(create);
    match options.open(full) {
        Err(e) if create && e.kind() == ErrorKind::NotFound => {
            ensure_parent(full)?;
            options.open(full)
        }
        other => other,
    }
}

fn write_data(mut file: &File, data: DataRef<'_>) -> io::Result<()> {
    match data {
        DataRef::Bytes(b) => file.write_all(b),
        DataRef::Zeros(n) => {
            // Write in chunks to bound memory.
            let chunk = vec![0u8; 64 * 1024];
            let mut left = n;
            while left > 0 {
                let take = left.min(chunk.len() as u64) as usize;
                file.write_all(&chunk[..take])?;
                left -= take as u64;
            }
            Ok(())
        }
    }
}

impl Backend for RealDir {
    fn create(&mut self, path: &str) -> StoreResult<()> {
        let full = self.resolve(path)?;
        ensure_parent(&full)?;
        match OpenOptions::new().write(true).create_new(true).open(&full) {
            Ok(_) => Ok(()),
            Err(e) if e.kind() == ErrorKind::AlreadyExists => {
                Err(StoreError::AlreadyExists(path.to_owned()))
            }
            Err(e) => Err(e.into()),
        }
    }

    fn append(&mut self, path: &str, data: DataRef<'_>) -> StoreResult<u64> {
        let handle = self.handle(path, true)?;
        let offset = handle.end;
        match write_data(&handle.file, data) {
            Ok(()) => {
                handle.end = offset + data.len();
                Ok(offset)
            }
            Err(e) => {
                // How much of it landed is unknown: the next append must
                // ask the file where it ends.
                self.forget(path);
                Err(e.into())
            }
        }
    }

    fn read_at(&mut self, path: &str, offset: u64, len: u64) -> StoreResult<Vec<u8>> {
        let file = &self.handle(path, false)?.file;
        // Not `Handle::end`: another partition may be the appender.
        let size = file.metadata()?.len();
        if offset.checked_add(len).is_none_or(|end| end > size) {
            return Err(StoreError::OutOfRange(format!(
                "{path}: {offset}+{len} > {size}"
            )));
        }
        let mut buf = vec![0u8; len as usize];
        file.read_exact_at(&mut buf, offset)?;
        Ok(buf)
    }

    fn len(&mut self, path: &str) -> StoreResult<u64> {
        Ok(self.handle(path, false)?.file.metadata()?.len())
    }

    fn link(&mut self, src: &str, dst: &str) -> StoreResult<()> {
        let s = self.resolve(src)?;
        let d = self.resolve(dst)?;
        ensure_parent(&d)?;
        match fs::hard_link(&s, &d) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == ErrorKind::AlreadyExists => {
                Err(StoreError::AlreadyExists(dst.to_owned()))
            }
            Err(e) if e.kind() == ErrorKind::NotFound => Err(StoreError::NotFound(src.to_owned())),
            Err(e) => Err(e.into()),
        }
    }

    fn remove(&mut self, path: &str) -> StoreResult<()> {
        self.forget(path);
        let full = self.resolve(path)?;
        fs::remove_file(&full).map_err(|_| StoreError::NotFound(path.to_owned()))
    }

    fn truncate(&mut self, path: &str, len: u64) -> StoreResult<()> {
        self.forget(path);
        let full = self.resolve(path)?;
        let f = OpenOptions::new()
            .write(true)
            .open(&full)
            .map_err(|_| StoreError::NotFound(path.to_owned()))?;
        let size = f.metadata()?.len();
        if len > size {
            return Err(StoreError::OutOfRange(format!(
                "{path}: truncate to {len} > {size}"
            )));
        }
        f.set_len(len)?;
        Ok(())
    }

    fn exists(&mut self, path: &str) -> bool {
        self.resolve(path).map(|p| p.exists()).unwrap_or(false)
    }

    fn list(&mut self, prefix: &str) -> StoreResult<Vec<String>> {
        fn walk(dir: &Path, root: &Path, out: &mut Vec<String>) -> std::io::Result<()> {
            for entry in fs::read_dir(dir)? {
                let entry = entry?;
                // The type `readdir` already reported: no `stat` per file.
                if entry.file_type()?.is_dir() {
                    walk(&entry.path(), root, out)?;
                } else if let Ok(rel) = entry.path().strip_prefix(root) {
                    out.push(rel.to_string_lossy().replace('\\', "/"));
                }
            }
            Ok(())
        }
        // Every match lives under the directory part of the prefix.
        let dir = match prefix.rfind('/') {
            Some(slash) => self.resolve(&prefix[..slash])?,
            None => self.root.clone(),
        };
        let mut out = Vec::new();
        if dir.is_dir() {
            walk(&dir, &self.root, &mut out)?;
        }
        out.retain(|p| p.starts_with(prefix));
        out.sort_unstable();
        Ok(out)
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // tests may read clock and env (DESIGN.md §9)
mod tests {
    use super::*;

    fn tmp() -> (RealDir, PathBuf) {
        let dir = std::env::temp_dir().join(format!(
            "spamaware-realdir-{}-{:x}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        (RealDir::new(&dir).unwrap(), dir)
    }

    #[test]
    fn append_and_read_roundtrip() -> Result<(), Box<dyn std::error::Error>> {
        let (mut fs, dir) = tmp();
        assert_eq!(fs.append("m/box", DataRef::Bytes(b"hello"))?, 0);
        assert_eq!(fs.append("m/box", DataRef::Bytes(b" world"))?, 5);
        assert_eq!(fs.read_at("m/box", 0, 11)?, b"hello world");
        assert_eq!(fs.len("m/box")?, 11);
        let _ = std::fs::remove_dir_all(dir);
        Ok(())
    }

    #[test]
    fn create_new_rejects_existing() -> Result<(), Box<dyn std::error::Error>> {
        let (mut fs, dir) = tmp();
        fs.create("f")?;
        assert!(matches!(fs.create("f"), Err(StoreError::AlreadyExists(_))));
        let _ = std::fs::remove_dir_all(dir);
        Ok(())
    }

    #[test]
    fn hard_link_shares_and_remove_unlinks() -> Result<(), Box<dyn std::error::Error>> {
        let (mut fs, dir) = tmp();
        fs.append("orig", DataRef::Bytes(b"shared"))?;
        fs.link("orig", "copy")?;
        assert_eq!(fs.read_at("copy", 0, 6)?, b"shared");
        fs.remove("orig")?;
        assert_eq!(fs.read_at("copy", 0, 6)?, b"shared");
        let _ = std::fs::remove_dir_all(dir);
        Ok(())
    }

    #[test]
    fn traversal_is_rejected() {
        let (mut fs, dir) = tmp();
        assert!(fs.append("../escape", DataRef::Bytes(b"x")).is_err());
        assert!(fs.append("/abs", DataRef::Bytes(b"x")).is_err());
        assert!(fs.append("a//b", DataRef::Bytes(b"x")).is_err());
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn zeros_write_in_chunks() -> Result<(), Box<dyn std::error::Error>> {
        let (mut fs, dir) = tmp();
        fs.append("big", DataRef::Zeros(200_000))?;
        assert_eq!(fs.len("big")?, 200_000);
        let _ = std::fs::remove_dir_all(dir);
        Ok(())
    }

    #[test]
    fn missing_files_report_not_found() {
        let (mut fs, dir) = tmp();
        assert!(matches!(fs.len("nope"), Err(StoreError::NotFound(_))));
        assert!(matches!(
            fs.read_at("nope", 0, 1),
            Err(StoreError::NotFound(_))
        ));
        assert!(!dir.join("nope").exists(), "a read must not create");
        assert!(matches!(fs.remove("nope"), Err(StoreError::NotFound(_))));
        assert!(matches!(
            fs.link("nope", "dst"),
            Err(StoreError::NotFound(_))
        ));
        assert!(!fs.exists("nope"));
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn list_walks_only_the_directory_of_the_prefix() -> Result<(), Box<dyn std::error::Error>> {
        let (mut fs, dir) = tmp();
        for path in [
            "mfs/bob.key",
            "mfs/alice.key",
            "mfs/alice.data",
            "mfs/deep/er.key",
            "mfs2/eve.key",
            "maildir/alice/1",
            "top",
        ] {
            fs.append(path, DataRef::Bytes(b"x"))?;
        }
        assert_eq!(
            fs.list("mfs/")?,
            [
                "mfs/alice.data",
                "mfs/alice.key",
                "mfs/bob.key",
                "mfs/deep/er.key"
            ]
        );
        assert_eq!(fs.list("mfs/al")?, ["mfs/alice.data", "mfs/alice.key"]);
        assert_eq!(
            fs.list("mfs")?,
            [
                "mfs/alice.data",
                "mfs/alice.key",
                "mfs/bob.key",
                "mfs/deep/er.key",
                "mfs2/eve.key"
            ]
        );
        assert_eq!(fs.list("")?.len(), 7);
        assert!(fs.list("absent/")?.is_empty());
        assert!(fs.list("../").is_err(), "traversal is rejected here too");
        let _ = std::fs::remove_dir_all(dir);
        Ok(())
    }

    /// Descriptors of this process that point into `dir`.
    fn fds_under(dir: &Path) -> usize {
        std::fs::read_dir("/proc/self/fd")
            .unwrap()
            .filter_map(|e| std::fs::read_link(e.unwrap().path()).ok())
            .filter(|target| target.starts_with(dir))
            .count()
    }

    #[test]
    fn a_removed_truncated_or_replaced_path_is_reopened() -> Result<(), Box<dyn std::error::Error>>
    {
        let (mut fs, dir) = tmp();
        // remove: the next append starts a new file, not the unlinked one.
        assert_eq!(fs.append("f", DataRef::Bytes(b"old-old"))?, 0);
        fs.remove("f")?;
        assert_eq!(fs.append("f", DataRef::Bytes(b"new"))?, 0);
        assert_eq!(fs.append("f", DataRef::Bytes(b"er"))?, 3);
        assert_eq!(std::fs::read(dir.join("f"))?, b"newer");
        // truncate: the next append lands at the new end.
        fs.truncate("f", 2)?;
        assert_eq!(fs.len("f")?, 2);
        assert_eq!(fs.append("f", DataRef::Bytes(b"xt"))?, 2);
        assert_eq!(fs.read_at("f", 0, 4)?, b"next");
        // replace: ditto, in the replacement.
        fs.replace("f", DataRef::Bytes(b"ab"))?;
        assert_eq!(fs.append("f", DataRef::Bytes(b"c"))?, 2);
        assert_eq!(std::fs::read(dir.join("f"))?, b"abc");
        let _ = std::fs::remove_dir_all(dir);
        Ok(())
    }

    #[test]
    fn working_set_beyond_the_table_keeps_offsets_and_the_fd_bound(
    ) -> Result<(), Box<dyn std::error::Error>> {
        let (mut fs, dir) = tmp();
        let files = 4 * RealDir::MAX_OPEN;
        for round in 0..3u64 {
            for i in 0..files {
                let rec = format!("{i:04}-{round}\n");
                let at = fs.append(&format!("d{}/f{i}", i % 5), DataRef::Bytes(rec.as_bytes()))?;
                assert_eq!(at, round * 7, "file {i} round {round}");
                assert!(fds_under(&dir) <= RealDir::MAX_OPEN);
            }
        }
        for i in 0..files {
            let want = format!("{i:04}-0\n{i:04}-1\n{i:04}-2\n");
            assert_eq!(
                fs.read_at(&format!("d{}/f{i}", i % 5), 0, 21)?,
                want.as_bytes()
            );
            assert!(fds_under(&dir) <= RealDir::MAX_OPEN);
        }
        assert_eq!(fds_under(&dir), RealDir::MAX_OPEN, "the table is in use");
        drop(fs);
        assert_eq!(fds_under(&dir), 0);
        let _ = std::fs::remove_dir_all(dir);
        Ok(())
    }

    #[test]
    fn a_second_instance_reads_what_the_first_appends() -> Result<(), Box<dyn std::error::Error>> {
        // How `ShardedStore` uses one spool: the shared partition appends
        // bodies, every shard reads them through a handle of its own.
        let (mut writer, dir) = tmp();
        let mut reader = RealDir::new(&dir)?;
        assert_eq!(writer.append("mfs/sh.data", DataRef::Bytes(b"first"))?, 0);
        assert_eq!(reader.read_at("mfs/sh.data", 0, 5)?, b"first");
        // The reader's handle is open by now; the file grows under it.
        assert_eq!(writer.append("mfs/sh.data", DataRef::Bytes(b"second"))?, 5);
        assert_eq!(reader.len("mfs/sh.data")?, 11);
        assert_eq!(reader.read_at("mfs/sh.data", 5, 6)?, b"second");
        assert!(matches!(
            reader.read_at("mfs/sh.data", 5, 7),
            Err(StoreError::OutOfRange(_))
        ));
        let _ = std::fs::remove_dir_all(dir);
        Ok(())
    }

    /// Runs in a child of itself under `ulimit -n 64`, so exhausting the
    /// descriptors is quick and starves no other test.
    #[test]
    fn emfile_on_a_table_miss_is_survived() -> Result<(), Box<dyn std::error::Error>> {
        const CHILD: &str = "SPAMAWARE_REALDIR_EMFILE_CHILD";
        if std::env::var_os(CHILD).is_none() {
            let child = std::process::Command::new("sh")
                .arg("-c")
                .arg(
                    "ulimit -n 64 && exec \"$0\" --exact --test-threads=1 \
                     realdir::tests::emfile_on_a_table_miss_is_survived",
                )
                .arg(std::env::current_exe()?)
                .env(CHILD, "1")
                .output()?;
            let said = String::from_utf8_lossy(&child.stdout);
            assert!(child.status.success(), "{said}");
            assert!(said.contains("1 passed"), "the child ran no test: {said}");
            return Ok(());
        }
        let (mut fs, dir) = tmp();
        for i in 0..8 {
            fs.append(&format!("f{i}"), DataRef::Bytes(b"x"))?;
        }
        let mut hog = Vec::new();
        loop {
            match File::open("/dev/null") {
                Ok(f) => hog.push(f),
                Err(e) => {
                    assert_eq!(e.raw_os_error(), Some(EMFILE));
                    break;
                }
            }
        }
        // Not one descriptor left: the miss takes the table's own.
        assert_eq!(fs.append("fresh", DataRef::Bytes(b"mail"))?, 0);
        assert_eq!(fs.open.len(), 1);
        // The dropped files come back with the right ends.
        assert_eq!(fs.append("f0", DataRef::Bytes(b"y"))?, 1);
        assert_eq!(fs.read_at("fresh", 0, 4)?, b"mail");
        drop(hog);
        let _ = std::fs::remove_dir_all(dir);
        Ok(())
    }
}
