//! The vanilla-postfix layout: one mbox-style file per mailbox.
//!
//! An `n`-recipient mail is appended to `n` mailbox files — the duplicated
//! disk I/O the paper's §6 sets out to eliminate. Deletion rewrites the
//! mailbox file, as real mbox delivery agents do.

use crate::backend::DataRef;
use crate::{Backend, MailId, MailStore, StoreError, StoreResult, StoredMail};

const HEADER_LEN: u64 = 20;
const MAGIC: u32 = 0x4D42_5830; // "MBX0"

/// One file per mailbox; mails framed as `[magic, id, len]` + body.
///
/// # Example
///
/// ```
/// use spamaware_mfs::{MailId, MailStore, MboxStore, MemFs};
/// let mut store = MboxStore::new(MemFs::new());
/// store.deliver(MailId(1), &["alice", "bob"], b"hi".as_slice().into())?;
/// assert_eq!(store.read_mailbox("alice")?.len(), 1);
/// assert_eq!(store.read_mailbox("bob")?[0].body, b"hi");
/// # Ok::<(), spamaware_mfs::StoreError>(())
/// ```
#[derive(Debug)]
pub struct MboxStore<B> {
    backend: B,
}

impl<B: Backend> MboxStore<B> {
    /// Creates the store over a backend.
    pub fn new(backend: B) -> MboxStore<B> {
        MboxStore { backend }
    }

    /// The underlying backend.
    pub fn backend(&self) -> &B {
        &self.backend
    }

    /// Mutable access to the underlying backend.
    pub fn backend_mut(&mut self) -> &mut B {
        &mut self.backend
    }

    fn path(mailbox: &str) -> String {
        format!("mbox/{mailbox}")
    }

    fn encode_header(id: MailId, len: u64) -> [u8; HEADER_LEN as usize] {
        let mut h = [0u8; HEADER_LEN as usize];
        h[..4].copy_from_slice(&MAGIC.to_be_bytes());
        h[4..12].copy_from_slice(&id.0.to_be_bytes());
        h[12..20].copy_from_slice(&len.to_be_bytes());
        h
    }

    fn decode_header(bytes: &[u8], path: &str) -> StoreResult<(MailId, u64)> {
        if bytes.len() < HEADER_LEN as usize {
            return Err(StoreError::CorruptRecord(format!("{path}: short header")));
        }
        let magic = u32::from_be_bytes(crate::error::be_array(bytes, 0, path)?);
        if magic != MAGIC {
            return Err(StoreError::CorruptRecord(format!(
                "{path}: bad magic {magic:#x}"
            )));
        }
        let id = MailId(u64::from_be_bytes(crate::error::be_array(bytes, 4, path)?));
        let len = u64::from_be_bytes(crate::error::be_array(bytes, 12, path)?);
        Ok((id, len))
    }

    /// Scans a mailbox file into `(id, body_offset, body_len)` triples.
    fn scan(&mut self, mailbox: &str) -> StoreResult<Vec<(MailId, u64, u64)>> {
        let path = Self::path(mailbox);
        if !self.backend.exists(&path) {
            return Ok(Vec::new());
        }
        let total = self.backend.len(&path)?;
        let mut out = Vec::new();
        let mut pos = 0u64;
        while pos < total {
            let header = self.backend.read_at(&path, pos, HEADER_LEN)?;
            let (id, len) = Self::decode_header(&header, &path)?;
            if pos + HEADER_LEN + len > total {
                return Err(StoreError::CorruptRecord(format!(
                    "{path}: truncated body at {pos}"
                )));
            }
            out.push((id, pos + HEADER_LEN, len));
            pos += HEADER_LEN + len;
        }
        Ok(out)
    }
}

impl<B: Backend> MailStore for MboxStore<B> {
    fn deliver(&mut self, id: MailId, mailboxes: &[&str], body: DataRef<'_>) -> StoreResult<()> {
        let header = Self::encode_header(id, body.len());
        for mb in mailboxes {
            let path = Self::path(mb);
            // One framed record per mailbox: the body is written once per
            // recipient — the duplicated I/O MFS avoids.
            self.backend.append_record(&path, &header, body)?;
        }
        Ok(())
    }

    fn read_mailbox(&mut self, mailbox: &str) -> StoreResult<Vec<StoredMail>> {
        let records = self.scan(mailbox)?;
        let path = Self::path(mailbox);
        let mut out = Vec::with_capacity(records.len());
        for (id, off, len) in records {
            let body = self.backend.read_at(&path, off, len)?;
            out.push(StoredMail { id, body });
        }
        Ok(out)
    }

    fn delete(&mut self, mailbox: &str, id: MailId) -> StoreResult<()> {
        let records = self.scan(mailbox)?;
        if !records.iter().any(|(rid, _, _)| *rid == id) {
            return Err(StoreError::NotFound(format!("{mailbox}/{id}")));
        }
        // Rewrite the mailbox without the deleted record (mbox semantics).
        let path = Self::path(mailbox);
        let mut kept = Vec::new();
        for (rid, off, len) in records {
            if rid == id {
                continue;
            }
            kept.extend_from_slice(&Self::encode_header(rid, len));
            kept.extend_from_slice(&self.backend.read_at(&path, off, len)?);
        }
        self.backend.replace(&path, DataRef::Bytes(&kept))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemFs;

    fn store() -> MboxStore<MemFs> {
        MboxStore::new(MemFs::new())
    }

    #[test]
    fn multi_recipient_writes_body_per_mailbox() -> Result<(), Box<dyn std::error::Error>> {
        let mut s = store();
        s.deliver(MailId(1), &["a", "b", "c"], DataRef::Bytes(b"body"))?;
        for mb in ["a", "b", "c"] {
            let mails = s.read_mailbox(mb)?;
            assert_eq!(mails.len(), 1);
            assert_eq!(mails[0].body, b"body");
        }
        // 3 copies on disk: the duplicated I/O.
        assert_eq!(s.backend().total_bytes(), 3 * (20 + 4));
        Ok(())
    }

    #[test]
    fn delivery_order_is_preserved() -> Result<(), Box<dyn std::error::Error>> {
        let mut s = store();
        for i in 1..=5u64 {
            s.deliver(MailId(i), &["inbox"], DataRef::Bytes(&[i as u8]))?;
        }
        let mails = s.read_mailbox("inbox")?;
        let ids: Vec<u64> = mails.iter().map(|m| m.id.0).collect();
        assert_eq!(ids, vec![1, 2, 3, 4, 5]);
        Ok(())
    }

    #[test]
    fn delete_rewrites_without_record() -> Result<(), Box<dyn std::error::Error>> {
        let mut s = store();
        s.deliver(MailId(1), &["inbox"], DataRef::Bytes(b"one"))?;
        s.deliver(MailId(2), &["inbox"], DataRef::Bytes(b"two"))?;
        s.deliver(MailId(3), &["inbox"], DataRef::Bytes(b"three"))?;
        s.delete("inbox", MailId(2))?;
        let mails = s.read_mailbox("inbox")?;
        assert_eq!(mails.len(), 2);
        assert_eq!(mails[0].body, b"one");
        assert_eq!(mails[1].body, b"three");
        Ok(())
    }

    #[test]
    fn delete_only_affects_one_mailbox() -> Result<(), Box<dyn std::error::Error>> {
        let mut s = store();
        s.deliver(MailId(7), &["a", "b"], DataRef::Bytes(b"x"))?;
        s.delete("a", MailId(7))?;
        assert!(s.read_mailbox("a")?.is_empty());
        assert_eq!(s.read_mailbox("b")?.len(), 1);
        Ok(())
    }

    #[test]
    fn delete_missing_mail_errors() -> Result<(), Box<dyn std::error::Error>> {
        let mut s = store();
        s.deliver(MailId(1), &["inbox"], DataRef::Bytes(b"x"))?;
        assert!(matches!(
            s.delete("inbox", MailId(9)),
            Err(StoreError::NotFound(_))
        ));
        Ok(())
    }

    #[test]
    fn empty_mailbox_reads_empty() -> Result<(), Box<dyn std::error::Error>> {
        let mut s = store();
        assert!(s.read_mailbox("nobody")?.is_empty());
        Ok(())
    }

    #[test]
    fn zero_length_body_roundtrips() -> Result<(), Box<dyn std::error::Error>> {
        let mut s = store();
        s.deliver(MailId(1), &["inbox"], DataRef::Bytes(b""))?;
        let mails = s.read_mailbox("inbox")?;
        assert_eq!(mails[0].body, Vec::<u8>::new());
        Ok(())
    }
}
