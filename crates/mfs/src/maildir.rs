//! The maildir layout (one file per mail per mailbox) and its hard-link
//! optimization.

use crate::backend::DataRef;
use crate::{Backend, MailId, MailStore, StoreError, StoreResult, StoredMail};

fn mail_path(mailbox: &str, id: MailId) -> String {
    format!("maildir/{mailbox}/{id}")
}

fn mailbox_prefix(mailbox: &str) -> String {
    format!("maildir/{mailbox}/")
}

fn id_from_path(path: &str) -> StoreResult<MailId> {
    let name = path.rsplit('/').next().unwrap_or("");
    name.parse()
        .map_err(|_| StoreError::CorruptRecord(format!("bad maildir filename: {path}")))
}

/// Plain maildir: every delivery creates a fresh file.
///
/// On a file system where small-file creation is expensive (Ext3-journal),
/// this is the slowest layout in Fig. 10 by a wide margin.
#[derive(Debug)]
pub struct MaildirStore<B> {
    backend: B,
}

impl<B: Backend> MaildirStore<B> {
    /// Creates the store over a backend.
    pub fn new(backend: B) -> MaildirStore<B> {
        MaildirStore { backend }
    }

    /// The underlying backend.
    pub fn backend(&self) -> &B {
        &self.backend
    }

    /// Mutable access to the underlying backend.
    pub fn backend_mut(&mut self) -> &mut B {
        &mut self.backend
    }
}

impl<B: Backend> MailStore for MaildirStore<B> {
    fn deliver(&mut self, id: MailId, mailboxes: &[&str], body: DataRef<'_>) -> StoreResult<()> {
        for mb in mailboxes {
            let path = mail_path(mb, id);
            self.backend.create(&path)?;
            self.backend.append(&path, body)?;
        }
        Ok(())
    }

    fn read_mailbox(&mut self, mailbox: &str) -> StoreResult<Vec<StoredMail>> {
        read_dir_mailbox(&mut self.backend, mailbox)
    }

    fn delete(&mut self, mailbox: &str, id: MailId) -> StoreResult<()> {
        self.backend.remove(&mail_path(mailbox, id))
    }
}

/// Maildir with single-instance bodies: the first recipient gets the file,
/// every further recipient gets a hard link to it (the paper's "hard-link"
/// variant).
#[derive(Debug)]
pub struct HardlinkStore<B> {
    backend: B,
}

impl<B: Backend> HardlinkStore<B> {
    /// Creates the store over a backend.
    pub fn new(backend: B) -> HardlinkStore<B> {
        HardlinkStore { backend }
    }

    /// The underlying backend.
    pub fn backend(&self) -> &B {
        &self.backend
    }

    /// Mutable access to the underlying backend.
    pub fn backend_mut(&mut self) -> &mut B {
        &mut self.backend
    }
}

impl<B: Backend> MailStore for HardlinkStore<B> {
    fn deliver(&mut self, id: MailId, mailboxes: &[&str], body: DataRef<'_>) -> StoreResult<()> {
        let Some((first, rest)) = mailboxes.split_first() else {
            return Ok(());
        };
        let first_path = mail_path(first, id);
        self.backend.create(&first_path)?;
        self.backend.append(&first_path, body)?;
        for mb in rest {
            self.backend.link(&first_path, &mail_path(mb, id))?;
        }
        Ok(())
    }

    fn read_mailbox(&mut self, mailbox: &str) -> StoreResult<Vec<StoredMail>> {
        read_dir_mailbox(&mut self.backend, mailbox)
    }

    fn delete(&mut self, mailbox: &str, id: MailId) -> StoreResult<()> {
        // Removing one link leaves the other recipients' copies intact;
        // the inode is freed by the backend when the last link goes.
        self.backend.remove(&mail_path(mailbox, id))
    }
}

fn read_dir_mailbox<B: Backend>(backend: &mut B, mailbox: &str) -> StoreResult<Vec<StoredMail>> {
    let mut out = Vec::new();
    let mut entries: Vec<(MailId, String)> = Vec::new();
    for path in backend.list(&mailbox_prefix(mailbox))? {
        entries.push((id_from_path(&path)?, path));
    }
    // Maildir file names sort lexically; ids are monotone, so sort by id
    // to recover delivery order.
    entries.sort_by_key(|(id, _)| *id);
    for (id, path) in entries {
        let len = backend.len(&path)?;
        let body = backend.read_at(&path, 0, len)?;
        out.push(StoredMail { id, body });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemFs;

    #[test]
    fn maildir_creates_file_per_recipient() -> Result<(), Box<dyn std::error::Error>> {
        let mut s = MaildirStore::new(MemFs::new());
        s.deliver(MailId(1), &["a", "b"], DataRef::Bytes(b"body"))?;
        assert_eq!(s.backend().inode_count(), 2);
        assert_eq!(s.backend().total_bytes(), 8);
        assert_eq!(s.read_mailbox("a")?[0].body, b"body");
        Ok(())
    }

    #[test]
    fn hardlink_shares_one_inode() -> Result<(), Box<dyn std::error::Error>> {
        let mut s = HardlinkStore::new(MemFs::new());
        s.deliver(MailId(1), &["a", "b", "c"], DataRef::Bytes(b"body"))?;
        // One inode, three names: single-instance storage.
        assert_eq!(s.backend().inode_count(), 1);
        assert_eq!(s.backend().total_bytes(), 4);
        for mb in ["a", "b", "c"] {
            assert_eq!(s.read_mailbox(mb)?[0].body, b"body");
        }
        Ok(())
    }

    #[test]
    fn hardlink_delete_preserves_other_recipients() -> Result<(), Box<dyn std::error::Error>> {
        let mut s = HardlinkStore::new(MemFs::new());
        s.deliver(MailId(1), &["a", "b"], DataRef::Bytes(b"x"))?;
        s.delete("a", MailId(1))?;
        assert!(s.read_mailbox("a")?.is_empty());
        assert_eq!(s.read_mailbox("b")?.len(), 1);
        // Deleting the last link frees the inode.
        s.delete("b", MailId(1))?;
        assert_eq!(s.backend().inode_count(), 0);
        Ok(())
    }

    #[test]
    fn maildir_read_order_follows_ids() -> Result<(), Box<dyn std::error::Error>> {
        let mut s = MaildirStore::new(MemFs::new());
        // Deliver out of id order: read-back must sort by id.
        for raw in [3u64, 1, 2] {
            s.deliver(MailId(raw), &["inbox"], DataRef::Bytes(&[raw as u8]))?;
        }
        let ids: Vec<u64> = s.read_mailbox("inbox")?.iter().map(|m| m.id.0).collect();
        assert_eq!(ids, vec![1, 2, 3]);
        Ok(())
    }

    #[test]
    fn duplicate_delivery_is_rejected() -> Result<(), Box<dyn std::error::Error>> {
        let mut s = MaildirStore::new(MemFs::new());
        s.deliver(MailId(1), &["a"], DataRef::Bytes(b"x"))?;
        assert!(matches!(
            s.deliver(MailId(1), &["a"], DataRef::Bytes(b"x")),
            Err(StoreError::AlreadyExists(_))
        ));
        Ok(())
    }

    #[test]
    fn hardlink_empty_recipient_list_is_noop() -> Result<(), Box<dyn std::error::Error>> {
        let mut s = HardlinkStore::new(MemFs::new());
        s.deliver(MailId(1), &[], DataRef::Bytes(b"x"))?;
        assert_eq!(s.backend().inode_count(), 0);
        Ok(())
    }

    #[test]
    fn delete_missing_errors() {
        let mut s = MaildirStore::new(MemFs::new());
        assert!(matches!(
            s.delete("inbox", MailId(5)),
            Err(StoreError::NotFound(_))
        ));
    }
}
