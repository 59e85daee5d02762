#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)] // DESIGN.md §9
#![deny(clippy::unreachable, clippy::iter_over_hash_type)]
//! DNS-based blacklist (DNSBL) substrate: blacklist database, authoritative
//! server model, latency models, and the mail server's caching stub
//! resolver — including the paper's prefix-based DNSBLv6 scheme (§7).
//!
//! # Overview
//!
//! * [`BlacklistDb`] — the listed-IP set, queryable per IP or as /25
//!   bitmaps.
//! * [`DnsblServer`] — an authoritative server over a zone, answering both
//!   classic reversed-IP A queries and DNSBLv6 bitmap AAAA queries, with a
//!   calibrated cold-query [`LatencyModel`] (Fig. 5).
//! * [`CachingResolver`] — the mail-server-side cache with three
//!   granularities ([`CacheScheme::None`], [`CacheScheme::PerIp`],
//!   [`CacheScheme::PerPrefix`]); its [`ResolverStats`] are the Fig. 15
//!   numbers.
//! * [`fanout_latency`] — simultaneous multi-list querying (the paper's
//!   footnote 2 notes production setups query several lists at once).
//! * [`CircuitBreaker`] — consecutive-failure circuit breaker over an
//!   injectable clock, so a dead DNSBL costs the mail server one probe
//!   per backoff window instead of one timeout per connection (§9's
//!   "never delay mail service" stance applied to resolver outages).

mod breaker;
mod database;
mod latency;
mod resolver;
mod server;
mod udp;
pub mod wire;

pub use breaker::{BreakerDecision, CircuitBreaker, FAILURE_THRESHOLD, MAX_BACKOFF, OPEN_BACKOFF};
pub use database::{BlacklistDb, ListingCode};
pub use latency::{paper_servers, LatencyModel};
pub use resolver::{CacheScheme, CachingResolver, Fetched, LookupOutcome, ResolverStats};
pub use server::{DnsblServer, WireAnswer};
pub use udp::{UdpDnsbl, UdpStats};

use rand::Rng;
use spamaware_sim::Nanos;

/// Latency of querying several DNSBLs simultaneously: the answer arrives
/// when the *slowest* list responds (the mail server needs all verdicts to
/// combine them).
///
/// # Panics
///
/// Panics if `models` is empty.
///
/// # Example
///
/// ```
/// use spamaware_dnsbl::{fanout_latency, paper_servers};
/// let servers = paper_servers();
/// let models: Vec<_> = servers.iter().map(|(_, m)| m.clone()).collect();
/// let mut rng = spamaware_sim::det_rng(2);
/// let l = fanout_latency(&models, &mut rng);
/// assert!(l > spamaware_sim::Nanos::ZERO);
/// ```
pub fn fanout_latency<R: Rng + ?Sized>(models: &[LatencyModel], rng: &mut R) -> Nanos {
    assert!(!models.is_empty(), "fanout needs at least one model");
    models
        .iter()
        .map(|m| m.sample(rng))
        .fold(Nanos::ZERO, |a, b| a.max(b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use spamaware_sim::det_rng;

    #[test]
    fn fanout_is_at_least_single_server() {
        let models: Vec<LatencyModel> = paper_servers().into_iter().map(|(_, m)| m).collect();
        let mut rng_f = det_rng(80);
        let mut rng_s = det_rng(80);
        let n = 2_000;
        let fan: f64 = (0..n)
            .map(|_| fanout_latency(&models, &mut rng_f).as_millis_f64())
            .sum::<f64>()
            / n as f64;
        let single: f64 = (0..n)
            .map(|_| models[0].sample(&mut rng_s).as_millis_f64())
            .sum::<f64>()
            / n as f64;
        assert!(fan > single, "fanout {fan} vs single {single}");
    }

    #[test]
    #[should_panic(expected = "at least one model")]
    fn empty_fanout_panics() {
        let mut rng = det_rng(81);
        fanout_latency(&[], &mut rng);
    }
}

/// Result of a [`width_analysis`] cache simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WidthAnalysis {
    /// Prefix width simulated (bits).
    pub width: u8,
    /// Lookups performed.
    pub lookups: u64,
    /// Cache hits.
    pub hits: u64,
    /// Queries issued.
    pub queries: u64,
}

impl WidthAnalysis {
    /// Cache hit ratio.
    pub fn hit_ratio(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups as f64
        }
    }
}

/// Simulates TTL-based caching of bitmap answers at an arbitrary prefix
/// `width` (bits) over a time-ordered stream of `(arrival, client_ip)`
/// lookups — the design-space sweep behind the paper's choice of /25
/// (which is what one 128-bit AAAA answer can carry).
///
/// Wider prefixes (smaller `width`) need fewer queries but would require
/// multiple DNS answers per query under unmodified DNS; narrower prefixes
/// degenerate toward per-IP caching.
///
/// # Panics
///
/// Panics if `width` is not in `8..=32` or `ttl` is zero.
pub fn width_analysis(
    events: &[(Nanos, spamaware_netaddr::Ipv4)],
    width: u8,
    ttl: Nanos,
) -> WidthAnalysis {
    assert!((8..=32).contains(&width), "width out of range: {width}");
    assert!(!ttl.is_zero(), "ttl must be nonzero");
    let shift = 32 - width as u32;
    let mut cache: std::collections::HashMap<u32, Nanos> = std::collections::HashMap::new();
    let mut out = WidthAnalysis {
        width,
        lookups: 0,
        hits: 0,
        queries: 0,
    };
    for &(at, ip) in events {
        out.lookups += 1;
        let key = if shift == 32 { 0 } else { ip.as_u32() >> shift };
        match cache.get(&key) {
            Some(&expiry) if expiry > at => out.hits += 1,
            _ => {
                out.queries += 1;
                cache.insert(key, at + ttl);
            }
        }
    }
    out
}

#[cfg(test)]
mod width_tests {
    use super::*;
    use spamaware_netaddr::Ipv4;

    #[test]
    fn wider_prefixes_hit_more() {
        let events: Vec<(Nanos, Ipv4)> = (0..64u8)
            .map(|i| (Nanos::from_secs(i as u64), Ipv4::new(10, 0, 0, i * 4)))
            .collect();
        let ttl = Nanos::from_secs(86_400);
        let w32 = width_analysis(&events, 32, ttl);
        let w25 = width_analysis(&events, 25, ttl);
        let w24 = width_analysis(&events, 24, ttl);
        assert!(w24.hits >= w25.hits);
        assert!(w25.hits >= w32.hits);
        assert_eq!(w24.queries, 1, "all events share one /24");
        assert_eq!(w32.queries, 64, "all IPs distinct");
    }

    #[test]
    fn ttl_expiry_in_width_analysis() {
        let ip = Ipv4::new(9, 9, 9, 9);
        let ttl = Nanos::from_secs(10);
        let events = vec![
            (Nanos::from_secs(0), ip),
            (Nanos::from_secs(5), ip),
            (Nanos::from_secs(20), ip),
        ];
        let w = width_analysis(&events, 24, ttl);
        assert_eq!(w.hits, 1);
        assert_eq!(w.queries, 2);
    }

    #[test]
    #[should_panic(expected = "width out of range")]
    fn width_bounds_checked() {
        width_analysis(&[], 33, Nanos::from_secs(1));
    }
}
