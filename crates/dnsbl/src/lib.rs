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

use spamaware_sim::Nanos;

spamaware_metrics::instruments! {
    /// Every instrument of the crate: what the live server's DNSBL agent
    /// registers for its resolver and its breaker.
    pub const INSTRUMENTS;

    /// The resolver's books: instruments of its own until
    /// [`CachingResolver::with_metrics`] swaps in a registry's, and what
    /// [`CachingResolver::stats`] reads either way.
    #[derive(Debug, Default)]
    pub(crate) struct ResolverMetrics {
        hits: counter "dnsbl.cache_hit" "Lookups the resolver answered from its cache.",
        misses: counter "dnsbl.cache_miss" "Lookups the resolver's cache could not answer.",
        evictions: counter "dnsbl.eviction" "Unexpired cache entries evicted to keep the cache within its capacity.",
    }

    /// The breaker's transitions and state.
    #[derive(Debug)]
    pub(crate) struct BreakerMetrics {
        opened: counter "dnsbl.breaker_opened" "Breaker transitions to open.",
        closed: counter "dnsbl.breaker_closed" "Breaker transitions from half-open back to closed.",
        short_circuits: counter "dnsbl.breaker_short_circuits" "Lookups the breaker skipped (failing open) while open or while its probe was out.",
        probes: counter "dnsbl.breaker_probes" "Half-open probe lookups the breaker admitted.",
        state: gauge "dnsbl.breaker_state" "Breaker state: 0 closed, 1 open, 2 half-open.",
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
