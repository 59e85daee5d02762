//! The paper-faithful MFS handle API (§6.2): `mail_open`, `mail_seek`,
//! `mail_nwrite`, `mail_read`, `mail_delete`, `mail_close`.
//!
//! The C API of the paper operates through `mail_file *` descriptors whose
//! seek pointer moves "at the granularity of a mail instead of a byte".
//! The Rust rendering keeps that shape: a [`MailFile`] is a cursor over a
//! mailbox, and all operations go through the owning [`MfsStore`].
//!
//! # Example
//!
//! A spam to three mailboxes is stored once, and the shared copy lives
//! until its last recipient deletes it:
//!
//! ```
//! use spamaware_mfs::{DataRef, MailId, MemFs, MfsStore, Whence};
//!
//! let mut store = MfsStore::new(MemFs::new());
//! let mut boxes = Vec::new();
//! for name in ["alice", "bob", "carol"] {
//!     boxes.push(store.mail_open(name)?);
//! }
//! let spam = b"Subject: totally legitimate offer\r\n\r\nclick here!\r\n";
//! let all: Vec<_> = boxes.iter().collect();
//! store.mail_nwrite(&all, MailId(1), DataRef::Bytes(spam))?;
//! assert_eq!(store.stats().shared_mails, 1);
//!
//! let alice = &mut boxes[0];
//! let mail = store.mail_read(alice)?.expect("alice holds the spam");
//! assert_eq!((mail.id, mail.body.as_slice()), (MailId(1), &spam[..]));
//! assert!(store.mail_read(alice)?.is_none(), "and nothing else");
//!
//! for (deleted, file) in boxes.iter_mut().enumerate() {
//!     assert_eq!(store.stats().shared_mails, 1, "{deleted} deleted so far");
//!     store.mail_seek(file, 0, Whence::Set)?;
//!     store.mail_delete(file)?;
//! }
//! assert_eq!(store.stats().shared_mails, 0);
//! # Ok::<(), spamaware_mfs::StoreError>(())
//! ```

use crate::backend::DataRef;
use crate::{Backend, MailId, MailStore, MfsStore, StoreError, StoreResult, StoredMail};

/// Where a [`MailFile`] seek offset is applied from (the paper's `whence`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Whence {
    /// From the first mail.
    Set,
    /// From the current position.
    Cur,
    /// From one past the last mail.
    End,
}

/// An open mailbox with a mail-granularity seek pointer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MailFile {
    mailbox: String,
    cursor: usize,
}

impl MailFile {
    /// The mailbox this handle reads.
    pub fn mailbox(&self) -> &str {
        &self.mailbox
    }

    /// Current position (0 = first mail).
    pub fn position(&self) -> usize {
        self.cursor
    }
}

impl<B: Backend> MfsStore<B> {
    /// Opens a mailbox, creating its key/data files if absent, with the
    /// seek pointer on the first mail (paper `mail_open`).
    pub fn mail_open(&mut self, mailbox: &str) -> StoreResult<MailFile> {
        // Creation is lazy (files appear on first write), matching the
        // paper's "if the file does not exist, the proper ... files are
        // created".
        Self::check_mailbox_name(mailbox)?;
        Ok(MailFile {
            mailbox: mailbox.to_owned(),
            cursor: 0,
        })
    }

    /// Moves the seek pointer by `offset` mails from `whence` (paper
    /// `mail_seek`).
    ///
    /// # Errors
    ///
    /// [`StoreError::OutOfRange`] if the target falls outside `0..=n` for
    /// a mailbox of `n` mails; key-file read failures. The count comes
    /// from the mailbox's key file, so a seek reads no mail.
    pub fn mail_seek(
        &mut self,
        file: &mut MailFile,
        offset: i64,
        whence: Whence,
    ) -> StoreResult<()> {
        let count = self.list_entries(&file.mailbox)?.len() as i64;
        let base = match whence {
            Whence::Set => 0,
            Whence::Cur => file.cursor as i64,
            Whence::End => count,
        };
        let target = base + offset;
        if !(0..=count).contains(&target) {
            return Err(StoreError::OutOfRange(format!(
                "seek to {target} in mailbox of {count} mails"
            )));
        }
        file.cursor = target as usize;
        Ok(())
    }

    /// Reads the mail under the seek pointer and advances it (paper
    /// `mail_read`). Returns `None` at end of mailbox.
    pub fn mail_read(&mut self, file: &mut MailFile) -> StoreResult<Option<StoredMail>> {
        let mails = self.read_mailbox(&file.mailbox)?;
        match mails.into_iter().nth(file.cursor) {
            Some(m) => {
                file.cursor += 1;
                Ok(Some(m))
            }
            None => Ok(None),
        }
    }

    /// Writes one mail to every open mailbox in `files` (paper
    /// `mail_nwrite`, whose C signature takes `mail_file **mfd, int nmfd`).
    ///
    /// # Errors
    ///
    /// See [`MfsStore::nwrite`].
    pub fn mail_nwrite(
        &mut self,
        files: &[&MailFile],
        id: MailId,
        body: DataRef<'_>,
    ) -> StoreResult<()> {
        let names: Vec<&str> = files.iter().map(|f| f.mailbox.as_str()).collect();
        self.nwrite(id, &names, body)
    }

    /// Deletes the mail under the seek pointer (paper `mail_delete`),
    /// located through the mailbox's key file without reading any body.
    /// Later mails shift down; the pointer stays put, now naming the next
    /// mail.
    ///
    /// # Errors
    ///
    /// [`StoreError::OutOfRange`] if the pointer is at end of mailbox;
    /// key-file read failures.
    pub fn mail_delete(&mut self, file: &mut MailFile) -> StoreResult<()> {
        let listing = self.list_entries(&file.mailbox)?;
        let Some(id) = listing.get(file.cursor).map(|e| e.id) else {
            return Err(StoreError::OutOfRange(format!(
                "delete at {} in mailbox of {} mails",
                file.cursor,
                listing.len()
            )));
        };
        self.delete(&file.mailbox, id)
    }

    /// Closes the handle (paper `mail_close`). State is flushed on every
    /// operation, so this is a consuming no-op kept for API parity.
    pub fn mail_close(&mut self, file: MailFile) {
        drop(file);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::intercept::{Call, Intercept, Op, Policy, Verdict};
    use crate::{FaultyBackend, MemFs};

    fn store_with_mail() -> (MfsStore<MemFs>, MailFile) {
        filled(MemFs::new())
    }

    /// A store over `backend` whose `inbox` holds mails 1, 2, 3.
    fn filled<B: Backend>(backend: B) -> (MfsStore<B>, MailFile) {
        let mut s = MfsStore::new(backend);
        let inbox = s.mail_open("inbox").unwrap();
        for i in 1..=3u64 {
            s.nwrite(MailId(i), &["inbox"], DataRef::Bytes(&[i as u8]))
                .unwrap();
        }
        (s, inbox)
    }

    #[test]
    fn read_iterates_in_order() -> Result<(), Box<dyn std::error::Error>> {
        let (mut s, mut f) = store_with_mail();
        let mut ids = Vec::new();
        while let Some(m) = s.mail_read(&mut f)? {
            ids.push(m.id.0);
        }
        assert_eq!(ids, vec![1, 2, 3]);
        assert!(s.mail_read(&mut f)?.is_none());
        Ok(())
    }

    #[test]
    fn seek_set_cur_end() -> Result<(), Box<dyn std::error::Error>> {
        let (mut s, mut f) = store_with_mail();
        s.mail_seek(&mut f, 2, Whence::Set)?;
        assert_eq!(s.mail_read(&mut f)?.ok_or("eof")?.id, MailId(3));
        s.mail_seek(&mut f, -2, Whence::Cur)?;
        assert_eq!(s.mail_read(&mut f)?.ok_or("eof")?.id, MailId(2));
        s.mail_seek(&mut f, -3, Whence::End)?;
        assert_eq!(s.mail_read(&mut f)?.ok_or("eof")?.id, MailId(1));
        Ok(())
    }

    #[test]
    fn seek_out_of_range_errors() {
        let (mut s, mut f) = store_with_mail();
        assert!(s.mail_seek(&mut f, 4, Whence::Set).is_err());
        assert!(s.mail_seek(&mut f, -1, Whence::Set).is_err());
        assert!(s.mail_seek(&mut f, 1, Whence::End).is_err());
        // Failed seeks leave the cursor untouched.
        assert_eq!(f.position(), 0);
    }

    /// A seek reads no mail: once the store holds the mailbox's listing,
    /// a read fault fails only the read.
    #[test]
    fn a_read_fault_fails_the_read_not_the_seek() {
        let (mut s, mut f) = filled(FaultyBackend::new(MemFs::new()));
        assert_eq!(s.mail_seek(&mut f, 0, Whence::End), Ok(()));
        s.backend_mut().plan_mut().fail_reads = true;
        assert_eq!(s.mail_seek(&mut f, 1, Whence::Set), Ok(()));
        assert!(matches!(s.mail_read(&mut f), Err(StoreError::Io(_))));
    }

    /// The count a seek needs comes from the key file: when the store
    /// holds no listing of the mailbox, a fault reading that file fails
    /// the seek and leaves the cursor where it was.
    #[test]
    fn a_key_file_fault_fails_the_seek() {
        let (mut s, mut f) = filled(FaultyBackend::new(MemFs::new()));
        s.backend_mut().plan_mut().fail_reads = true;
        assert!(matches!(
            s.mail_seek(&mut f, 1, Whence::Set),
            Err(StoreError::Io(_))
        ));
        assert_eq!(f.position(), 0);
    }

    /// Counts the body reads that reach the backend.
    #[derive(Default)]
    struct ReadAts(u64);

    impl Policy for ReadAts {
        fn before(&mut self, call: Call<'_>) -> Verdict {
            if call.op == Op::ReadAt && call.path.ends_with(".data") {
                self.0 += 1;
            }
            Verdict::Pass
        }
    }

    #[test]
    fn delete_reads_no_body() -> Result<(), Box<dyn std::error::Error>> {
        let (mut s, mut f) = filled(Intercept::with_policy(MemFs::new(), ReadAts::default()));
        s.mail_delete(&mut f)?;
        assert_eq!(s.backend_mut().policy().0, 0);
        let left: Vec<MailId> = s.list_mailbox("inbox").iter().map(|&(id, _)| id).collect();
        assert_eq!(left, [MailId(2), MailId(3)]);
        Ok(())
    }

    #[test]
    fn nwrite_through_handles() -> Result<(), Box<dyn std::error::Error>> {
        let mut s = MfsStore::new(MemFs::new());
        let a = s.mail_open("a")?;
        let b = s.mail_open("b")?;
        s.mail_nwrite(&[&a, &b], MailId(9), DataRef::Bytes(b"multi"))?;
        assert_eq!(s.stats().shared_mails, 1);
        let mut a = a;
        assert_eq!(s.mail_read(&mut a)?.ok_or("eof")?.body, b"multi");
        Ok(())
    }

    #[test]
    fn delete_at_cursor_shifts_stream() -> Result<(), Box<dyn std::error::Error>> {
        let (mut s, mut f) = store_with_mail();
        s.mail_seek(&mut f, 1, Whence::Set)?;
        s.mail_delete(&mut f)?;
        // Cursor now points at what was mail 3.
        assert_eq!(s.mail_read(&mut f)?.ok_or("eof")?.id, MailId(3));
        s.mail_seek(&mut f, 0, Whence::Set)?;
        assert_eq!(s.mail_read(&mut f)?.ok_or("eof")?.id, MailId(1));
        Ok(())
    }

    #[test]
    fn delete_at_end_errors() -> Result<(), Box<dyn std::error::Error>> {
        let (mut s, mut f) = store_with_mail();
        s.mail_seek(&mut f, 0, Whence::End)?;
        assert!(matches!(
            s.mail_delete(&mut f),
            Err(StoreError::OutOfRange(_))
        ));
        Ok(())
    }

    #[test]
    fn open_rejects_reserved_names() {
        let mut s = MfsStore::new(MemFs::new());
        assert!(s.mail_open("shmailbox").is_err());
        assert!(s.mail_open("").is_err());
        assert!(s.mail_open("a/b").is_err());
    }

    #[test]
    fn close_consumes_handle() {
        let (mut s, f) = store_with_mail();
        s.mail_close(f);
    }
}
