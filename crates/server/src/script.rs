//! Client-side dialog scripts derived from trace connection specs.

use spamaware_smtp::{Command, MailAddr};
use spamaware_trace::{ConnectionKind, ConnectionSpec, MailboxId};
use std::collections::VecDeque;

/// One client action in an SMTP dialog.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Step {
    /// Send a command and await the reply.
    Cmd(Command),
    /// Stream `n` bytes of message content (after a 354).
    Body(u64),
}

/// Renders a mailbox id as the recipient address the client sends.
#[expect(clippy::expect_used, reason = "address template; tested below")]
pub fn rcpt_addr(id: MailboxId) -> MailAddr {
    id.address().parse().expect("generated address is valid")
}

/// An invalid (random-guessing) recipient address.
#[expect(clippy::expect_used, reason = "address template; tested below")]
pub fn guess_addr(n: u32) -> MailAddr {
    format!("guess{n}@dept.example")
        .parse()
        .expect("generated address is valid")
}

/// Builds the full client dialog for one connection spec.
///
/// Random-guessing attempts are sent before valid recipients, matching the
/// harvesting behaviour of §4.1 (and ensuring the hybrid master is not
/// trusted prematurely).
pub fn build_script(spec: &ConnectionSpec) -> VecDeque<Step> {
    let mut s = VecDeque::new();
    s.push_back(Step::Cmd(Command::helo("client.example")));
    match &spec.kind {
        ConnectionKind::Mail(mails) => {
            for (i, m) in mails.iter().enumerate() {
                #[expect(clippy::expect_used, reason = "address template; tested below")]
                let sender: MailAddr = format!("sender{i}@remote.example")
                    .parse()
                    .expect("generated address is valid");
                s.push_back(Step::Cmd(Command::mail_from(Some(sender))));
                for g in 0..m.invalid_rcpts {
                    s.push_back(Step::Cmd(Command::rcpt_to(guess_addr(g as u32))));
                }
                for r in &m.valid_rcpts {
                    s.push_back(Step::Cmd(Command::rcpt_to(rcpt_addr(*r))));
                }
                s.push_back(Step::Cmd(Command::Data));
                s.push_back(Step::Body(m.size as u64));
            }
            s.push_back(Step::Cmd(Command::Quit));
        }
        ConnectionKind::Bounce { rcpt_attempts } => {
            s.push_back(Step::Cmd(Command::mail_from(None)));
            for g in 0..*rcpt_attempts {
                s.push_back(Step::Cmd(Command::rcpt_to(guess_addr(g as u32))));
            }
            s.push_back(Step::Cmd(Command::Quit));
        }
        ConnectionKind::Unfinished { handshake_commands } => {
            // 0 = the client silently drops the connection right after the
            // greeting (no QUIT) — the script ends and the engine models a
            // disconnect. Otherwise a few handshake commands, then QUIT.
            if *handshake_commands == 0 {
                s.clear();
            } else {
                if *handshake_commands >= 2 {
                    s.push_back(Step::Cmd(Command::mail_from(None)));
                }
                s.push_back(Step::Cmd(Command::Quit));
            }
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use spamaware_netaddr::Ipv4;
    use spamaware_sim::Nanos;
    use spamaware_trace::{bounce_sweep_trace, MailSpec, SinkholeConfig, UnivConfig};

    fn spec(kind: ConnectionKind) -> ConnectionSpec {
        ConnectionSpec {
            arrival: Nanos::ZERO,
            client_ip: Ipv4::new(1, 2, 3, 4),
            kind,
        }
    }

    #[test]
    fn mail_script_shape() {
        let s = build_script(&spec(ConnectionKind::Mail(vec![MailSpec {
            valid_rcpts: vec![MailboxId(0), MailboxId(1)],
            invalid_rcpts: 1,
            size: 2048,
            spam: true,
        }])));
        let verbs: Vec<String> = s
            .iter()
            .map(|st| match st {
                Step::Cmd(c) => c.verb().to_string(),
                Step::Body(n) => format!("BODY({n})"),
            })
            .collect();
        assert_eq!(
            verbs,
            vec![
                "HELO",
                "MAIL",
                "RCPT",
                "RCPT",
                "RCPT",
                "DATA",
                "BODY(2048)",
                "QUIT"
            ]
        );
        // Invalid guess precedes valid recipients.
        match &s[2] {
            Step::Cmd(Command::RcptTo(a)) => assert!(a.local_part().starts_with("guess")),
            other => panic!("unexpected {other:?}"),
        }
    }

    /// Backs the `#[expect(clippy::expect_used)]` sites above: every
    /// address template used by script construction parses for a
    /// representative id range.
    #[test]
    fn generated_addresses_are_always_valid() {
        for n in [0u32, 1, 7, 499, 10_000, u32::MAX] {
            assert_eq!(guess_addr(n).domain(), "dept.example");
            let sender: Result<MailAddr, _> = format!("sender{n}@remote.example").parse();
            assert!(sender.is_ok(), "sender template failed for {n}");
        }
        for id in [MailboxId(0), MailboxId(14), MailboxId(1_000_000)] {
            assert_eq!(rcpt_addr(id).domain(), "dept.example");
        }
    }

    #[test]
    fn bounce_script_never_reaches_data() {
        let s = build_script(&spec(ConnectionKind::Bounce { rcpt_attempts: 2 }));
        assert!(s.iter().all(|st| !matches!(st, Step::Body(_))));
        assert!(s.iter().all(|st| !matches!(st, Step::Cmd(Command::Data))));
        assert_eq!(s.len(), 5); // HELO MAIL RCPT RCPT QUIT
    }

    #[test]
    fn unfinished_scripts_scale_with_handshake() {
        let s0 = build_script(&spec(ConnectionKind::Unfinished {
            handshake_commands: 0,
        }));
        assert_eq!(s0.len(), 0); // silent drop, no QUIT
        let s1 = build_script(&spec(ConnectionKind::Unfinished {
            handshake_commands: 1,
        }));
        assert_eq!(s1.len(), 2); // HELO QUIT
        let s2 = build_script(&spec(ConnectionKind::Unfinished {
            handshake_commands: 2,
        }));
        assert_eq!(s2.len(), 3); // HELO MAIL QUIT
    }

    #[test]
    fn multi_transaction_connections_chain_mails() {
        let mail = MailSpec {
            valid_rcpts: vec![MailboxId(0)],
            invalid_rcpts: 0,
            size: 100,
            spam: false,
        };
        let s = build_script(&spec(ConnectionKind::Mail(vec![mail.clone(), mail])));
        let mails = s
            .iter()
            .filter(|st| matches!(st, Step::Cmd(Command::MailFrom(_))))
            .count();
        assert_eq!(mails, 2);
        let quits = s
            .iter()
            .filter(|st| matches!(st, Step::Cmd(Command::Quit)))
            .count();
        assert_eq!(quits, 1);
    }

    #[test]
    fn generated_addresses_parse() {
        assert_eq!(rcpt_addr(MailboxId(3)).local_part(), "user3");
        assert_eq!(guess_addr(9).local_part(), "guess9");
    }

    /// The DES hands its session built commands where the live server
    /// parses wire lines. That is the same dialogue because every command
    /// a script sends parses back to itself from its wire form — over the
    /// bounce sweep, the sinkhole and the Univ generators (the last holds
    /// every kind `combined_workload` adds to a sinkhole trace).
    #[test]
    fn every_scripted_command_round_trips_through_the_wire() {
        let traces = [
            bounce_sweep_trace(5, 200, 0.6, 400),
            SinkholeConfig::scaled(0.005).generate().trace,
            UnivConfig::scaled(1e-4).generate().trace,
        ];
        let mut commands = 0;
        for spec in traces.iter().flat_map(|t| &t.connections) {
            for step in build_script(spec) {
                if let Step::Cmd(cmd) = step {
                    assert_eq!(Command::parse(&cmd.to_string()), Ok(cmd));
                    commands += 1;
                }
            }
        }
        assert!(commands > 1_000, "{commands} commands");
    }
}
