//! Server-assigned mail identifiers.

use std::fmt;
use std::str::FromStr;

/// A mail id assigned by the MTA when the mail is received (RFC 822
/// message-id analog; paper §6.1: "every mail has its unique ID labeled by
/// the MTA ... which can conveniently serve as the unique index key").
///
/// Rendered as a 12-hex-digit queue id, postfix style. The id is trusted
/// only because *this server* generated it — client-supplied ids are never
/// used as index keys (paper footnote 3).
///
/// # Example
///
/// ```
/// use spamaware_mfs::MailId;
/// let id = MailId(0xA1B2C3);
/// assert_eq!(id.to_string(), "0000A1B2C3");
/// assert_eq!("0000A1B2C3".parse::<MailId>()?, id);
/// # Ok::<(), std::num::ParseIntError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct MailId(pub u64);

impl MailId {
    /// The id as its raw integer.
    pub const fn as_u64(self) -> u64 {
        self.0
    }
}

impl fmt::Display for MailId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:010X}", self.0)
    }
}

impl FromStr for MailId {
    type Err = std::num::ParseIntError;

    fn from_str(s: &str) -> Result<MailId, Self::Err> {
        u64::from_str_radix(s, 16).map(MailId)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_parse_roundtrip() {
        for raw in [0u64, 1, 0xDEADBEEF, u64::MAX >> 24] {
            let id = MailId(raw);
            let back: MailId = id.to_string().parse().unwrap();
            assert_eq!(back, id);
        }
    }
}
