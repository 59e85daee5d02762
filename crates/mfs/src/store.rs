//! The mailbox-layout abstraction: every storage scheme compared in
//! Figs. 10/11 implements [`MailStore`].

use crate::backend::DataRef;
use crate::{MailId, StoreResult};

/// A mail retrieved from a mailbox.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoredMail {
    /// The server-assigned mail id.
    pub id: MailId,
    /// The message content (zero-filled under size-only backends).
    pub body: Vec<u8>,
}

/// A mailbox storage layout.
///
/// The four implementations mirror the paper's §6.3 comparison:
///
/// | Layout | Paper name | Duplicate disk I/O for an `n`-recipient mail |
/// |---|---|---|
/// | [`crate::MboxStore`] | "Postfix" (one file per mailbox) | body written `n` times |
/// | [`crate::MaildirStore`] | "maildir" | `n` file creations + `n` body writes |
/// | [`crate::HardlinkStore`] | "hard-link" | 1 creation + 1 body write + `n-1` links |
/// | [`crate::MfsStore`] | "MFS" | 1 body write + `n` tiny key-tuple appends |
pub trait MailStore {
    /// Delivers one mail to all `mailboxes` atomically (w.r.t. this store).
    ///
    /// # Errors
    ///
    /// Layout-specific; [`crate::StoreError::MailIdCollision`] when a
    /// mail-id is reused with different content (MFS attack defence, §6.4).
    fn deliver(&mut self, id: MailId, mailboxes: &[&str], body: DataRef<'_>) -> StoreResult<()>;

    /// Reads every live mail in a mailbox, in delivery order.
    fn read_mailbox(&mut self, mailbox: &str) -> StoreResult<Vec<StoredMail>>;

    /// Deletes one mail from one mailbox. Other recipients' copies (or
    /// shared references) survive.
    fn delete(&mut self, mailbox: &str, id: MailId) -> StoreResult<()>;
}
