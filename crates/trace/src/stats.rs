//! Trace statistics — the numbers of the paper's Table 1, computed from a
//! generated workload.

use crate::{ConnectionKind, Trace};
use spamaware_netaddr::{Ipv4, Prefix24};
use std::collections::HashSet;
use std::fmt;

/// Summary statistics of a [`Trace`] (the Table 1 rows).
#[derive(Debug, Clone, PartialEq)]
pub struct TraceStats {
    /// Total connections.
    pub connections: usize,
    /// Unique client IP addresses.
    pub unique_ips: usize,
    /// Unique client /24 prefixes.
    pub unique_prefixes: usize,
    /// Total mails delivered.
    pub mails: u64,
    /// Total mailbox deliveries (mails × recipients).
    pub deliveries: u64,
    /// Mean recipients per delivered mail.
    pub mean_rcpts: f64,
    /// Fraction of delivered mails flagged spam.
    pub spam_ratio: f64,
    /// Fraction of connections that are bounce connections.
    pub bounce_fraction: f64,
    /// Fraction of connections that are unfinished transactions.
    pub unfinished_fraction: f64,
}

impl TraceStats {
    /// Computes statistics over a trace.
    pub fn of(trace: &Trace) -> TraceStats {
        let mut ips: HashSet<Ipv4> = HashSet::new();
        let mut prefixes: HashSet<Prefix24> = HashSet::new();
        let mut mails = 0u64;
        let mut deliveries = 0u64;
        let mut spam = 0u64;
        let mix = SessionMix::of(trace);
        for c in &trace.connections {
            ips.insert(c.client_ip);
            prefixes.insert(c.client_ip.prefix24());
            for m in c.mails() {
                mails += 1;
                deliveries += m.valid_rcpts.len() as u64;
                if m.spam {
                    spam += 1;
                }
            }
        }
        TraceStats {
            connections: trace.connections.len(),
            unique_ips: ips.len(),
            unique_prefixes: prefixes.len(),
            mails,
            deliveries,
            mean_rcpts: if mails == 0 {
                0.0
            } else {
                deliveries as f64 / mails as f64
            },
            spam_ratio: if mails == 0 {
                0.0
            } else {
                spam as f64 / mails as f64
            },
            bounce_fraction: mix.bounce_fraction(),
            unfinished_fraction: mix.unfinished_fraction(),
        }
    }
}

impl fmt::Display for TraceStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Number of connections:      {}", self.connections)?;
        writeln!(f, "Number of unique IPs:       {}", self.unique_ips)?;
        writeln!(f, "Number of unique /24s:      {}", self.unique_prefixes)?;
        writeln!(f, "Mails delivered:            {}", self.mails)?;
        writeln!(f, "Mailbox deliveries:         {}", self.deliveries)?;
        writeln!(f, "Mean recipients per mail:   {:.2}", self.mean_rcpts)?;
        writeln!(
            f,
            "Spam ratio (of mails):      {:.0}%",
            self.spam_ratio * 100.0
        )?;
        writeln!(
            f,
            "Bounce connections:         {:.1}%",
            self.bounce_fraction * 100.0
        )?;
        write!(
            f,
            "Unfinished connections:     {:.1}%",
            self.unfinished_fraction * 100.0
        )
    }
}

/// The bounce/unfinished/delivering mix of a trace's connections.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionMix {
    /// Connections that deliver at least one mail.
    pub delivering: usize,
    /// Bounce connections.
    pub bounce: usize,
    /// Unfinished transactions.
    pub unfinished: usize,
}

impl SessionMix {
    /// Computes the mix for a trace.
    pub fn of(trace: &Trace) -> SessionMix {
        let mut mix = SessionMix {
            delivering: 0,
            bounce: 0,
            unfinished: 0,
        };
        for c in &trace.connections {
            match &c.kind {
                ConnectionKind::Mail(m) if !m.is_empty() => mix.delivering += 1,
                ConnectionKind::Mail(_) | ConnectionKind::Unfinished { .. } => mix.unfinished += 1,
                ConnectionKind::Bounce { .. } => mix.bounce += 1,
            }
        }
        mix
    }

    /// Total connections.
    pub fn total(&self) -> usize {
        self.delivering + self.bounce + self.unfinished
    }

    /// Bounce fraction of all connections.
    pub fn bounce_fraction(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            self.bounce as f64 / self.total() as f64
        }
    }

    /// Unfinished fraction of all connections.
    pub fn unfinished_fraction(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            self.unfinished as f64 / self.total() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ConnectionSpec, MailSpec, MailboxId};
    use spamaware_sim::Nanos;

    fn trace() -> Trace {
        let mk = |arrival_s: u64, kind| ConnectionSpec {
            arrival: Nanos::from_secs(arrival_s),
            client_ip: Ipv4::new(1, 2, 3, arrival_s as u8 + 1),
            kind,
        };
        Trace {
            connections: vec![
                mk(
                    0,
                    ConnectionKind::Mail(vec![MailSpec {
                        valid_rcpts: vec![MailboxId(0), MailboxId(1)],
                        invalid_rcpts: 0,
                        size: 100,
                        spam: true,
                    }]),
                ),
                mk(1, ConnectionKind::Bounce { rcpt_attempts: 2 }),
                mk(
                    2,
                    ConnectionKind::Unfinished {
                        handshake_commands: 1,
                    },
                ),
                mk(
                    3,
                    ConnectionKind::Mail(vec![MailSpec {
                        valid_rcpts: vec![MailboxId(2)],
                        invalid_rcpts: 1,
                        size: 200,
                        spam: false,
                    }]),
                ),
            ],
            mailbox_count: 10,
            span: Nanos::from_secs(10),
        }
    }

    #[test]
    fn stats_compute_table1_rows() {
        let s = TraceStats::of(&trace());
        assert_eq!(s.connections, 4);
        assert_eq!(s.unique_ips, 4);
        assert_eq!(s.unique_prefixes, 1);
        assert_eq!(s.mails, 2);
        assert_eq!(s.deliveries, 3);
        assert!((s.mean_rcpts - 1.5).abs() < 1e-12);
        assert!((s.spam_ratio - 0.5).abs() < 1e-12);
        assert!((s.bounce_fraction - 0.25).abs() < 1e-12);
        assert!((s.unfinished_fraction - 0.25).abs() < 1e-12);
    }

    #[test]
    fn mix_counts() {
        let m = SessionMix::of(&trace());
        assert_eq!(m.delivering, 2);
        assert_eq!(m.bounce, 1);
        assert_eq!(m.unfinished, 1);
        assert_eq!(m.total(), 4);
    }

    #[test]
    fn display_is_nonempty() {
        let s = TraceStats::of(&trace());
        let text = s.to_string();
        assert!(text.contains("Number of connections"));
        assert!(text.contains("Spam ratio"));
    }

    #[test]
    fn empty_trace_yields_zeroes() {
        let t = Trace {
            connections: vec![],
            mailbox_count: 1,
            span: Nanos::ZERO,
        };
        let s = TraceStats::of(&t);
        assert_eq!(s.mean_rcpts, 0.0);
        assert_eq!(s.spam_ratio, 0.0);
        assert_eq!(SessionMix::of(&t).bounce_fraction(), 0.0);
    }
}
