//! Trace record types shared by all workload generators.

use spamaware_netaddr::Ipv4;
use spamaware_sim::Nanos;

/// Identifier of a destination mailbox hosted by the simulated server.
///
/// Generators emit compact ids; drivers render them as
/// `user<id>@dept.example` when actual addresses are needed. An id at or
/// above the trace's [`Trace::mailbox_count`] denotes a non-existent
/// mailbox (a random-guessing target).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MailboxId(pub u32);

impl MailboxId {
    /// Renders the mailbox's mail address.
    pub fn address(self) -> String {
        format!("user{}@dept.example", self.0)
    }
}

/// One mail transaction within a connection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MailSpec {
    /// Valid recipients (existing mailboxes).
    pub valid_rcpts: Vec<MailboxId>,
    /// Number of additional `RCPT TO` attempts naming non-existent
    /// mailboxes (each draws a `550`).
    pub invalid_rcpts: u8,
    /// Message size in bytes.
    pub size: u32,
    /// Whether the generator labeled this mail spam (ground truth; the
    /// simulated Spam-Assassin flag of the Univ trace).
    pub spam: bool,
}

impl MailSpec {
    /// Total `RCPT TO` commands this mail issues.
    pub fn rcpt_attempts(&self) -> u32 {
        self.valid_rcpts.len() as u32 + u32::from(self.invalid_rcpts)
    }
}

/// What a client does after connecting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConnectionKind {
    /// Delivers one or more mails.
    Mail(Vec<MailSpec>),
    /// Random-guessing bounce: `rcpt_attempts` invalid recipients, then
    /// QUIT, delivering nothing (paper §4.1).
    Bounce {
        /// Invalid `RCPT TO` attempts before giving up.
        rcpt_attempts: u8,
    },
    /// Unfinished transaction: a few handshake commands, then QUIT
    /// without ever issuing `RCPT TO`.
    Unfinished {
        /// Handshake commands issued (0 = connect then immediate quit).
        handshake_commands: u8,
    },
}

impl ConnectionKind {
    /// Whether this connection delivers at least one mail.
    pub fn delivers(&self) -> bool {
        matches!(self, ConnectionKind::Mail(mails) if !mails.is_empty())
    }
}

/// One inbound SMTP connection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConnectionSpec {
    /// Arrival offset from trace start.
    pub arrival: Nanos,
    /// Client address (DNSBL lookups key on this).
    pub client_ip: Ipv4,
    /// The client's behaviour.
    pub kind: ConnectionKind,
}

impl ConnectionSpec {
    /// Mails delivered by this connection.
    pub fn mails(&self) -> &[MailSpec] {
        match &self.kind {
            ConnectionKind::Mail(m) => m,
            _ => &[],
        }
    }
}

/// A complete generated workload, sorted by arrival time.
#[derive(Debug, Clone)]
pub struct Trace {
    /// Connections in arrival order.
    pub connections: Vec<ConnectionSpec>,
    /// Number of mailboxes hosted by the server (valid ids are
    /// `0..mailbox_count`).
    pub mailbox_count: u32,
    /// Nominal trace span (arrivals all fall within it).
    pub span: Nanos,
}

impl Trace {
    /// Asserts internal invariants; used by generators and tests.
    ///
    /// # Panics
    ///
    /// Panics if connections are unsorted, arrivals exceed the span, or a
    /// "valid" recipient id is out of range.
    pub fn validate(&self) {
        let mut prev = Nanos::ZERO;
        for c in &self.connections {
            assert!(c.arrival >= prev, "connections out of order");
            assert!(c.arrival <= self.span, "arrival beyond span");
            prev = c.arrival;
            for m in c.mails() {
                for r in &m.valid_rcpts {
                    assert!(r.0 < self.mailbox_count, "invalid mailbox id {}", r.0);
                }
            }
        }
    }

    /// Total mails across all connections.
    pub fn total_mails(&self) -> u64 {
        self.connections
            .iter()
            .map(|c| c.mails().len() as u64)
            .sum()
    }

    /// Total mailbox deliveries (mails × recipients).
    pub fn total_deliveries(&self) -> u64 {
        self.connections
            .iter()
            .flat_map(|c| c.mails())
            .map(|m| m.valid_rcpts.len() as u64)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mail(rcpts: &[u32], size: u32) -> MailSpec {
        MailSpec {
            valid_rcpts: rcpts.iter().copied().map(MailboxId).collect(),
            invalid_rcpts: 0,
            size,
            spam: false,
        }
    }

    #[test]
    fn mailbox_address_rendering() {
        assert_eq!(MailboxId(7).address(), "user7@dept.example");
    }

    #[test]
    fn rcpt_attempts_counts_both() {
        let mut m = mail(&[1, 2], 100);
        m.invalid_rcpts = 3;
        assert_eq!(m.rcpt_attempts(), 5);
    }

    #[test]
    fn kind_delivery_classification() {
        assert!(ConnectionKind::Mail(vec![mail(&[0], 1)]).delivers());
        assert!(!ConnectionKind::Mail(vec![]).delivers());
        assert!(!ConnectionKind::Bounce { rcpt_attempts: 2 }.delivers());
        assert!(!ConnectionKind::Unfinished {
            handshake_commands: 1
        }
        .delivers());
    }

    #[test]
    fn totals() {
        let t = Trace {
            connections: vec![
                ConnectionSpec {
                    arrival: Nanos::ZERO,
                    client_ip: Ipv4::new(1, 2, 3, 4),
                    kind: ConnectionKind::Mail(vec![mail(&[0, 1, 2], 10), mail(&[3], 20)]),
                },
                ConnectionSpec {
                    arrival: Nanos::from_secs(1),
                    client_ip: Ipv4::new(1, 2, 3, 5),
                    kind: ConnectionKind::Bounce { rcpt_attempts: 1 },
                },
            ],
            mailbox_count: 10,
            span: Nanos::from_secs(2),
        };
        t.validate();
        assert_eq!(t.total_mails(), 2);
        assert_eq!(t.total_deliveries(), 4);
    }

    #[test]
    #[should_panic(expected = "connections out of order")]
    fn validate_rejects_unsorted() {
        let t = Trace {
            connections: vec![
                ConnectionSpec {
                    arrival: Nanos::from_secs(1),
                    client_ip: Ipv4::new(1, 2, 3, 4),
                    kind: ConnectionKind::Bounce { rcpt_attempts: 1 },
                },
                ConnectionSpec {
                    arrival: Nanos::ZERO,
                    client_ip: Ipv4::new(1, 2, 3, 4),
                    kind: ConnectionKind::Bounce { rcpt_attempts: 1 },
                },
            ],
            mailbox_count: 1,
            span: Nanos::from_secs(2),
        };
        t.validate();
    }

    #[test]
    #[should_panic(expected = "invalid mailbox id")]
    fn validate_rejects_bad_mailbox() {
        let t = Trace {
            connections: vec![ConnectionSpec {
                arrival: Nanos::ZERO,
                client_ip: Ipv4::new(1, 2, 3, 4),
                kind: ConnectionKind::Mail(vec![mail(&[99], 10)]),
            }],
            mailbox_count: 10,
            span: Nanos::from_secs(1),
        };
        t.validate();
    }
}
