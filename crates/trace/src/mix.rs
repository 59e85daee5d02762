//! Workload mixing: the §8 combined workload (spam trace + ECN bounce
//! levels).

use crate::{ConnectionKind, ConnectionSpec, Trace};
use rand::Rng;
use spamaware_sim::{det_rng, Nanos};

/// Builds the paper's §8 combined workload: the mail connections of `base`
/// interleaved with bounce and unfinished connections at the given
/// fractions of *total* connections (the ECN-measured levels, Fig. 3).
///
/// Bounce/unfinished client IPs are drawn from the base trace's own client
/// population (random-guessing spam comes from the same botnets), so DNSBL
/// cache behaviour stays representative.
///
/// # Panics
///
/// Panics if the fractions are negative or sum to ≥ 1, or `base` is empty.
///
/// # Example
///
/// ```
/// use spamaware_trace::{combined_workload, SinkholeConfig};
///
/// let sink = SinkholeConfig::scaled(0.01).generate();
/// let t = combined_workload(&sink.trace, 0.25, 0.10, 7);
/// assert!(t.connections.len() > sink.trace.connections.len());
/// ```
pub fn combined_workload(
    base: &Trace,
    bounce_fraction: f64,
    unfinished_fraction: f64,
    seed: u64,
) -> Trace {
    assert!(!base.connections.is_empty(), "base trace is empty");
    assert!(bounce_fraction >= 0.0 && unfinished_fraction >= 0.0);
    let rogue = bounce_fraction + unfinished_fraction;
    assert!(rogue < 1.0, "rogue fractions must sum below 1");

    let mut rng = det_rng(seed ^ 0xC0B1);
    let mail_conns = base.connections.len();
    let total = (mail_conns as f64 / (1.0 - rogue)).round() as usize;
    let bounces = (total as f64 * bounce_fraction) as usize;
    let unfinished = total - mail_conns - bounces;

    let mut connections = base.connections.clone();
    let span = base.span;
    for _ in 0..bounces {
        let donor = &base.connections[rng.gen_range(0..mail_conns)];
        connections.push(ConnectionSpec {
            arrival: Nanos::from_nanos(rng.gen_range(0..=span.as_nanos())),
            client_ip: donor.client_ip,
            kind: ConnectionKind::Bounce {
                rcpt_attempts: 1 + spamaware_sim::dist::poisson(&mut rng, 0.6) as u8,
            },
        });
    }
    for _ in 0..unfinished {
        let donor = &base.connections[rng.gen_range(0..mail_conns)];
        connections.push(ConnectionSpec {
            arrival: Nanos::from_nanos(rng.gen_range(0..=span.as_nanos())),
            client_ip: donor.client_ip,
            kind: ConnectionKind::Unfinished {
                handshake_commands: rng.gen_range(0..3),
            },
        });
    }
    connections.sort_by_key(|c| c.arrival);
    let trace = Trace {
        connections,
        mailbox_count: base.mailbox_count,
        span,
    };
    trace.validate();
    trace
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SessionMix, SinkholeConfig};

    #[test]
    fn fractions_come_out_as_requested() {
        let sink = SinkholeConfig::scaled(0.02).generate();
        let t = combined_workload(&sink.trace, 0.25, 0.10, 1);
        let mix = SessionMix::of(&t);
        assert!((mix.bounce_fraction() - 0.25).abs() < 0.02);
        assert!((mix.unfinished_fraction() - 0.10).abs() < 0.02);
        assert_eq!(mix.delivering, sink.trace.connections.len());
    }

    #[test]
    fn rogue_ips_come_from_the_botnet() {
        let sink = SinkholeConfig::scaled(0.02).generate();
        let bots: std::collections::HashSet<_> =
            sink.trace.connections.iter().map(|c| c.client_ip).collect();
        let t = combined_workload(&sink.trace, 0.3, 0.1, 2);
        for c in &t.connections {
            assert!(bots.contains(&c.client_ip));
        }
    }

    #[test]
    fn zero_fractions_reproduce_base() {
        let sink = SinkholeConfig::scaled(0.01).generate();
        let t = combined_workload(&sink.trace, 0.0, 0.0, 3);
        assert_eq!(t.connections.len(), sink.trace.connections.len());
    }

    #[test]
    #[should_panic(expected = "sum below 1")]
    fn rejects_all_rogue() {
        let sink = SinkholeConfig::scaled(0.01).generate();
        combined_workload(&sink.trace, 0.7, 0.4, 4);
    }
}
