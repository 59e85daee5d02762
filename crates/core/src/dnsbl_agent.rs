//! The DNSBL agent thread: every lookup the live server makes happens
//! here, never on the master.
//!
//! §5 requires a non-blocking master and §9 makes the DNSBL verdict
//! record-only ("our solution does not delay/deny mail service to any
//! client") — together they mean the master never needs the answer
//! synchronously. The master hands the peer IP over a bounded channel
//! with a non-blocking `try_send` and moves on; this thread owns the
//! per-/25 cache, the circuit breaker, and the UDP socket work, and
//! records the verdict in `live.blacklisted`. When the channel is full
//! the lookup is dropped and counted (`dnsbl.agent_dropped`): under
//! overload we shed a *statistic*, not a client.

use crate::instruments::AgentMetrics;
use crossbeam::channel::Receiver;
use spamaware_dnsbl::{
    BreakerConfig, BreakerDecision, CacheScheme, CachingResolver, CircuitBreaker, DnsblServer,
    UdpDnsbl,
};
use spamaware_metrics::{Counter, Registry};
use spamaware_netaddr::Ipv4;
use spamaware_sim::Nanos;
use std::collections::HashMap;
use std::io::ErrorKind;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Everything the agent thread owns.
pub(crate) struct DnsblAgentCtx {
    /// Peer IPs the master wants looked up (fire-and-forget).
    pub rx: Receiver<Ipv4>,
    pub stop: Arc<AtomicBool>,
    /// `live.blacklisted` — the verdict sink.
    pub blacklisted: Arc<Counter>,
    pub registry: Arc<Registry>,
    /// In-process simulated DNSBL (used when `dnsbl_udp` is unset).
    pub dnsbl: Option<DnsblServer>,
    /// Real DNSBL over UDP: `(server address, zone)`.
    pub dnsbl_udp: Option<(SocketAddr, String)>,
    pub dnsbl_udp_timeout: Duration,
    pub dnsbl_breaker: BreakerConfig,
}

/// Drains lookup requests until the stop flag is set or every sender is
/// gone. One request at a time: the breaker's whole point is that a dead
/// resolver costs at most `failure_threshold` timeouts before everything
/// short-circuits, so serial processing converges fast even when the
/// master enqueues a burst.
pub(crate) fn agent_loop(ctx: DnsblAgentCtx) {
    let metrics = AgentMetrics::register(&ctx.registry);
    let mut breaker = CircuitBreaker::new(ctx.dnsbl_breaker.clone(), ctx.registry.clock())
        .with_metrics(&ctx.registry, "dnsbl");
    let mut resolver = CachingResolver::new(CacheScheme::PerPrefix, Nanos::from_secs(86_400))
        .with_metrics(&ctx.registry, "dnsbl");
    let mut rng = spamaware_sim::det_rng(0x11FE);
    let mut udp_cache: HashMap<spamaware_netaddr::Prefix25, spamaware_netaddr::PrefixBitmap> =
        HashMap::new();
    while !ctx.stop.load(Ordering::SeqCst) {
        // `recv` returns `Err` once every sender is gone; the master is
        // stopped and joined before this thread, so shutdown surfaces
        // here as a disconnect.
        #[expect(
            clippy::disallowed_methods,
            reason = "the DNSBL agent's own thread: it has nothing to do until the master enqueues a lookup"
        )]
        let Ok(peer_ip) = ctx.rx.recv() else {
            break;
        };
        let start = metrics.lookup_ns.now();
        let listed = if let Some((server_addr, zone)) = &ctx.dnsbl_udp {
            // Real DNSBLv6 query over UDP, cached per /25. Only
            // *successful* answers enter the cache: a fail-open verdict
            // is a degraded guess, and caching it would poison the whole
            // /25 until restart.
            match udp_cache.get(&peer_ip.prefix25()) {
                Some(bitmap) => bitmap.contains(peer_ip),
                None => match breaker.admit() {
                    // Open circuit: fail open to "not listed" without
                    // touching the network (§9 — never delay mail for a
                    // dead dependency).
                    BreakerDecision::ShortCircuit => false,
                    BreakerDecision::Allow | BreakerDecision::Probe => {
                        #[expect(
                            clippy::disallowed_methods,
                            reason = "the DNSBL agent's own thread: the master parks the connection and is woken with the verdict"
                        )]
                        let answer = UdpDnsbl::lookup_v6_timeout(
                            *server_addr,
                            zone,
                            peer_ip,
                            ctx.dnsbl_udp_timeout,
                        );
                        match answer {
                            Ok(bitmap) => {
                                breaker.record_success();
                                let listed = bitmap.contains(peer_ip);
                                udp_cache.insert(peer_ip.prefix25(), bitmap);
                                listed
                            }
                            Err(e) => {
                                breaker.record_failure();
                                if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) {
                                    metrics.udp_timeouts.inc();
                                } else {
                                    metrics.udp_errors.inc();
                                }
                                false
                            }
                        }
                    }
                },
            }
        } else if let Some(server) = &ctx.dnsbl {
            let now = Nanos::from_nanos(0);
            resolver.lookup(peer_ip, now, server, &mut rng).listed
        } else {
            false
        };
        metrics.lookup_ns.record_since(start);
        if listed {
            ctx.blacklisted.inc();
        }
    }
}
