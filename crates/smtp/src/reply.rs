//! SMTP replies.

use std::fmt;

/// A server reply: a 3-digit code and a text line.
///
/// # Example
///
/// ```
/// use spamaware_smtp::Reply;
/// let r = Reply::user_unknown();
/// assert_eq!(r.code(), 550);
/// assert!(r.is_permanent_failure());
/// assert_eq!(r.to_string(), "550 5.1.1 User unknown");
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reply {
    code: u16,
    text: String,
    /// Additional lines of a multiline reply (RFC 5321 §4.2.1); each is
    /// rendered as `<code>-<line>` with the final line carrying the text.
    extra: Vec<String>,
}

impl Reply {
    /// Builds an arbitrary reply. Private: every code/text pair the
    /// servers can send is a named constructor below, defined once.
    ///
    /// # Panics
    ///
    /// Panics if `code` is not a 3-digit SMTP code (200–599).
    fn new(code: u16, text: impl Into<String>) -> Reply {
        assert!((200..=599).contains(&code), "invalid SMTP code {code}");
        Reply {
            code,
            text: text.into(),
            extra: Vec::new(),
        }
    }

    /// Builds a multiline reply: `first` then `rest`, the last line being
    /// the terminal one (`250-a`, `250-b`, `250 c` on the wire).
    ///
    /// # Panics
    ///
    /// Panics if `code` is not a 3-digit SMTP code or `rest` is empty
    /// (use [`Reply::new`] for single-line replies).
    fn multiline(code: u16, first: impl Into<String>, rest: Vec<String>) -> Reply {
        assert!((200..=599).contains(&code), "invalid SMTP code {code}");
        assert!(!rest.is_empty(), "multiline reply needs extra lines");
        let mut lines = vec![first.into()];
        lines.extend(rest);
        // The assert above guarantees at least two lines.
        let text = lines.pop().unwrap_or_default();
        Reply {
            code,
            text,
            extra: lines,
        }
    }

    /// `250` EHLO acknowledgement advertising ESMTP extensions, among
    /// them the largest message accepted (`SIZE`, RFC 1870).
    pub fn hello_esmtp(host: &str, max_message_size: u64) -> Reply {
        let ext = vec!["8BITMIME".to_owned(), format!("SIZE {max_message_size}")];
        Reply::multiline(250, host.to_owned(), ext)
    }

    /// `220` service-ready greeting.
    pub fn greeting(host: &str) -> Reply {
        Reply::new(220, format!("{host} ESMTP spamaware"))
    }

    /// `250 Ok`.
    pub fn ok() -> Reply {
        Reply::new(250, "2.0.0 Ok")
    }

    /// `250` HELO/EHLO acknowledgement.
    pub fn hello(host: &str) -> Reply {
        Reply::new(250, host.to_owned())
    }

    /// `354` start-mail-input.
    pub fn start_data() -> Reply {
        Reply::new(354, "End data with <CR><LF>.<CR><LF>")
    }

    /// `250` queued-as acknowledgement after DATA.
    pub fn queued(mail_id: &str) -> Reply {
        Reply::new(250, format!("2.0.0 Ok: queued as {mail_id}"))
    }

    /// `221` closing.
    pub fn bye() -> Reply {
        Reply::new(221, "2.0.0 Bye")
    }

    /// `550` unknown mailbox — the paper's bounce reply (§4.1).
    pub fn user_unknown() -> Reply {
        Reply::new(550, "5.1.1 User unknown")
    }

    /// `554` transport not supported — the live server speaks IPv4 only
    /// (DNSBL prefix caching is defined over IPv4 /25s), so IPv6 peers
    /// are told to retry over IPv4 instead of being silently remapped.
    pub fn ipv6_unsupported() -> Reply {
        Reply::new(554, "5.3.4 IPv6 transport not supported; connect via IPv4")
    }

    /// `500` unrecognized command.
    pub fn syntax_error() -> Reply {
        Reply::new(500, "5.5.2 Error: command not recognized")
    }

    /// `501` bad argument.
    pub fn bad_argument() -> Reply {
        Reply::new(501, "5.5.4 Syntax error in parameters")
    }

    /// `503` command out of sequence.
    pub fn bad_sequence(expected: &str) -> Reply {
        Reply::new(503, format!("5.5.1 Error: need {expected} command"))
    }

    /// `452` too many recipients.
    pub fn too_many_recipients() -> Reply {
        Reply::new(452, "4.5.3 Error: too many recipients")
    }

    /// `452` session transaction cap reached.
    pub fn too_many_transactions() -> Reply {
        Reply::new(452, "4.5.3 Too many transactions")
    }

    /// `552` message exceeds the advertised SIZE limit.
    pub fn message_too_large() -> Reply {
        Reply::new(552, "5.3.4 Message size exceeds limit")
    }

    /// `451` transient server-side failure (e.g. the mail store errored).
    pub fn local_error() -> Reply {
        Reply::new(451, "4.3.0 Local error in processing")
    }

    /// `421` service not available — the overload/shutdown tempfail
    /// (RFC 5321 §3.8): sent when admission control sheds a connection,
    /// when every worker queue is full, when a phase deadline expires, or
    /// while draining. Clients retry later against a healthy server; no
    /// mail is bounced.
    pub fn service_not_available() -> Reply {
        Reply::new(
            421,
            "4.3.2 Service not available, closing transmission channel",
        )
    }

    /// `252` noncommittal VRFY answer (standard anti-harvesting practice).
    pub fn vrfy_noncommittal() -> Reply {
        Reply::new(252, "2.0.0 Cannot VRFY user")
    }

    /// The numeric code.
    pub fn code(&self) -> u16 {
        self.code
    }

    /// The text after the code.
    pub fn text(&self) -> &str {
        &self.text
    }

    /// 5xx.
    pub fn is_permanent_failure(&self) -> bool {
        self.code >= 500
    }

    /// Serializes as wire lines, CRLF-terminated, handling multiline
    /// replies (`250-a`, `250 b`).
    pub fn to_wire(&self) -> String {
        let mut out = Vec::new();
        self.write_wire(&mut out);
        String::from_utf8(out).unwrap_or_default()
    }

    /// Appends the wire form to an existing buffer — lets a server
    /// coalesce the replies to a pipelined command burst into one socket
    /// write without intermediate `String`s.
    pub fn write_wire(&self, out: &mut Vec<u8>) {
        use std::io::Write;
        for line in &self.extra {
            // Writing into a Vec cannot fail.
            let _ = write!(out, "{}-{}\r\n", self.code, line);
        }
        let _ = write!(out, "{} {}\r\n", self.code, self.text);
    }

    /// Parses a single-line wire reply.
    pub fn parse(line: &str) -> Option<Reply> {
        let line = line.trim_end_matches(['\r', '\n']);
        // get() rather than slicing: the code must be three ASCII digits,
        // and arbitrary wire input may start with multi-byte characters.
        let code: u16 = line.get(..3)?.parse().ok()?;
        if !(200..=599).contains(&code) {
            return None;
        }
        let text = line
            .get(3..)
            .unwrap_or("")
            .trim_start_matches([' ', '-'])
            .to_owned();
        Some(Reply {
            code,
            text,
            extra: Vec::new(),
        })
    }
}

impl fmt::Display for Reply {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.code, self.text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_by_code() {
        assert_eq!(Reply::ok().code(), 250);
        assert_eq!(Reply::start_data().code(), 354);
        assert_eq!(Reply::too_many_recipients().code(), 452);
        assert!(Reply::user_unknown().is_permanent_failure());
        assert!(!Reply::ok().is_permanent_failure());
    }

    #[test]
    fn service_not_available_is_transient() {
        let r = Reply::service_not_available();
        assert_eq!(r.code(), 421, "421 must invite a retry");
        assert!(!r.is_permanent_failure());
    }

    #[test]
    fn wire_roundtrip() {
        for r in [
            Reply::greeting("mx.example"),
            Reply::ok(),
            Reply::user_unknown(),
            Reply::bye(),
            Reply::bad_sequence("MAIL"),
        ] {
            let parsed = Reply::parse(r.to_wire().trim_end()).unwrap();
            assert_eq!(parsed, r);
        }
    }

    #[test]
    fn multiline_wire_format() {
        let r = Reply::hello_esmtp("mx.example", 10_000_000);
        let wire = r.to_wire();
        assert_eq!(
            wire,
            "250-mx.example\r\n250-8BITMIME\r\n250 SIZE 10000000\r\n"
        );
    }

    #[test]
    #[should_panic(expected = "needs extra lines")]
    fn multiline_requires_extra() {
        Reply::multiline(250, "only", vec![]);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert_eq!(Reply::parse(""), None);
        assert_eq!(Reply::parse("ab"), None);
        assert_eq!(Reply::parse("999 nope"), None);
        assert_eq!(Reply::parse("12x hello"), None);
    }

    #[test]
    #[should_panic(expected = "invalid SMTP code")]
    fn new_rejects_bad_code() {
        Reply::new(199, "x");
    }

    #[test]
    fn queued_mentions_mail_id() {
        let r = Reply::queued("4AC21F");
        assert!(r.text().contains("4AC21F"));
        assert_eq!(r.code(), 250);
    }
}
