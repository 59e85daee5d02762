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
use spamaware_dnsbl::{
    BreakerDecision, CacheScheme, CachingResolver, CircuitBreaker, Fetched, UdpDnsbl,
};
use spamaware_metrics::{Counter, Registry};
use spamaware_netaddr::Ipv4;
use spamaware_sim::Nanos;
use std::io::ErrorKind;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::Receiver;
use std::sync::Arc;
use std::time::Duration;

/// How long a fetched /25 bitmap answers for its prefix (the paper's
/// setting, §7.2: blacklists "are updated rather infrequently").
const CACHE_TTL: Nanos = Nanos::from_secs(86_400);

/// Bitmaps the cache holds at once. The whole sinkhole trace fits in a
/// quarter of this (`figures ablation_cache_size`); past it, expired
/// entries and then the soonest to expire make room.
const CACHE_CAPACITY: usize = 4096;

/// How long the agent waits for one uncached answer. The master never
/// waits at all, so a slow resolver delays verdict *statistics*, not
/// connections; the paper's Fig. 5 puts 16–50 % of cold queries past it.
const UDP_TIMEOUT: Duration = Duration::from_millis(100);

/// Everything the agent thread owns.
pub(crate) struct DnsblAgentCtx {
    /// Peer IPs the master wants looked up (fire-and-forget).
    pub rx: Receiver<Ipv4>,
    pub stop: Arc<AtomicBool>,
    /// `live.blacklisted` — the verdict sink.
    pub blacklisted: Arc<Counter>,
    pub agent: Agent,
}

/// The lookup path: cache, then breaker — open after
/// [`spamaware_dnsbl::FAILURE_THRESHOLD`] straight failures, for 1 s
/// doubling to 60 s — then one UDP query. Time is the registry's clock throughout.
pub(crate) struct Agent {
    registry: Arc<Registry>,
    metrics: AgentMetrics,
    breaker: CircuitBreaker,
    resolver: CachingResolver,
    dnsbl_udp: (SocketAddr, String),
}

impl Agent {
    /// An agent asking the DNSBL at `dnsbl_udp` — `(server address,
    /// zone)` — with its own, its resolver's and its breaker's
    /// instruments registered on `registry` now, before any lookup.
    pub(crate) fn new(registry: Arc<Registry>, dnsbl_udp: (SocketAddr, String)) -> Agent {
        Agent {
            metrics: AgentMetrics::register(&registry),
            breaker: CircuitBreaker::new(&registry),
            resolver: CachingResolver::new(CacheScheme::PerPrefix, CACHE_TTL)
                .with_capacity(CACHE_CAPACITY)
                .with_metrics(&registry),
            registry,
            dnsbl_udp,
        }
    }

    /// Whether the DNSBL lists `peer_ip`, failing open to "not listed".
    fn listed(&mut self, peer_ip: Ipv4) -> bool {
        let now = Nanos::from_nanos(self.registry.now_nanos());
        if let Some(listed) = self.resolver.probe(peer_ip, now) {
            return listed;
        }
        // Open circuit: fail open without touching the network (§9 —
        // never delay mail for a dead dependency).
        if self.breaker.admit() == BreakerDecision::ShortCircuit {
            return false;
        }
        let (server_addr, zone) = &self.dnsbl_udp;
        #[expect(
            clippy::disallowed_methods,
            reason = "the DNSBL agent's own thread: the master hands it the address and never waits for the verdict, which is record-only (§9)"
        )]
        let answer = UdpDnsbl::lookup_v6_timeout(*server_addr, zone, peer_ip, UDP_TIMEOUT);
        match answer {
            // Only *successful* answers enter the cache: a fail-open
            // verdict is a degraded guess, and caching it would poison
            // the whole /25 for a day.
            Ok(bitmap) => {
                self.breaker.record_success();
                self.resolver.insert(peer_ip, now, Fetched::Bitmap(bitmap))
            }
            Err(e) => {
                self.breaker.record_failure();
                if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) {
                    self.metrics.udp_timeouts.inc();
                } else {
                    self.metrics.udp_errors.inc();
                }
                false
            }
        }
    }
}

/// Drains lookup requests until the stop flag is set or every sender is
/// gone. One request at a time: the breaker's whole point is that a dead
/// resolver costs at most `failure_threshold` timeouts before everything
/// short-circuits, so serial processing converges fast even when the
/// master enqueues a burst.
pub(crate) fn agent_loop(ctx: DnsblAgentCtx) {
    let mut agent = ctx.agent;
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
        let start = agent.metrics.lookup_ns.now();
        let listed = agent.listed(peer_ip);
        agent.metrics.lookup_ns.record_since(start);
        if listed {
            ctx.blacklisted.inc();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spamaware_dnsbl::wire::{Answer, Message, Rcode, RecordType};
    use spamaware_dnsbl::BlacklistDb;
    use spamaware_metrics::ManualClock;
    use std::net::UdpSocket;

    #[test]
    fn a_cached_prefix_expires_with_the_registry_clock_and_the_cache_stays_bounded() {
        let bot = Ipv4::new(203, 0, 113, 7);
        let db: BlacklistDb = [bot].into_iter().collect();
        let stub = UdpDnsbl::start(SocketAddr::from(([127, 0, 0, 1], 0)), "bl.example", db)
            .expect("start the UDP stub");
        let answered = || stub.stats().answered.load(Ordering::Relaxed);
        let clock = ManualClock::new();
        let mut agent = Agent::new(
            Arc::new(Registry::new(Arc::new(clock.clone()))),
            (stub.local_addr(), "bl.example".to_owned()),
        );

        assert!(agent.listed(bot));
        assert_eq!(answered(), 1);
        // A neighbour in the /25, a second before the TTL runs out: the
        // cached bitmap answers, and does not list it.
        clock.advance(CACHE_TTL.as_nanos() - 1_000_000_000);
        assert!(!agent.listed(Ipv4::new(203, 0, 113, 8)));
        assert_eq!(answered(), 1);
        clock.advance(1_000_000_000);
        assert!(agent.listed(bot));
        assert_eq!(answered(), 2, "the expired entry was asked for again");

        for i in 0..CACHE_CAPACITY as u32 + 64 {
            agent.listed(Ipv4::from_u32(0x0A00_0000 + i * 128));
            assert!(agent.resolver.cached_entries() <= CACHE_CAPACITY);
        }
        assert_eq!(agent.resolver.cached_entries(), CACHE_CAPACITY);
        assert_eq!(answered(), 2 + CACHE_CAPACITY as u64 + 64);
        stub.shutdown();
    }

    /// A stand-in DNSBL on its own thread: answers the one query it gets
    /// with `answer(query)`.
    #[expect(
        clippy::disallowed_methods,
        reason = "the stand-in DNSBL's own thread blocks on its socket"
    )]
    fn answer_once(answer: impl FnOnce(Message) -> Message + Send + 'static) -> SocketAddr {
        let socket = UdpSocket::bind(("127.0.0.1", 0)).expect("bind");
        let addr = socket.local_addr().expect("addr");
        std::thread::spawn(move || {
            let mut buf = [0u8; 512];
            let (n, peer) = socket.recv_from(&mut buf).expect("query");
            let query = Message::decode(&buf[..n]).expect("decode");
            socket
                .send_to(&answer(query).encode(), peer)
                .expect("answer");
        });
        addr
    }

    /// `query` answered with a bitmap that lists its whole /25.
    fn listing_everything(query: &Message, rcode: Rcode) -> Message {
        let name = query.questions[0].name.clone();
        let answer = Answer {
            name,
            rtype: RecordType::Aaaa,
            ttl: 60,
            rdata: vec![0xFF; 16],
        };
        query.respond(rcode, vec![answer])
    }

    /// An answer the agent must refuse: it counts as a UDP error, the
    /// peer reads as not listed, and nothing is cached — then a proper
    /// answer still lists the peer.
    fn refused(answer: impl FnOnce(Message) -> Message + Send + 'static) {
        let bot = Ipv4::new(203, 0, 113, 7);
        let registry = Arc::new(Registry::new(Arc::new(ManualClock::new())));
        let mut agent = Agent::new(
            Arc::clone(&registry),
            (answer_once(answer), "bl.example".to_owned()),
        );
        assert!(!agent.listed(bot));
        assert_eq!(agent.resolver.cached_entries(), 0);
        assert_eq!(registry.counter_value("dnsbl.udp_errors"), Some(1));

        let db: BlacklistDb = [bot].into_iter().collect();
        let stub = UdpDnsbl::start(SocketAddr::from(([127, 0, 0, 1], 0)), "bl.example", db)
            .expect("start the UDP stub");
        agent.dnsbl_udp.0 = stub.local_addr();
        assert!(agent.listed(bot));
        assert_eq!(agent.resolver.cached_entries(), 1);
        stub.shutdown();
    }

    #[test]
    fn a_servfail_is_an_error_and_caches_nothing() {
        refused(|query| listing_everything(&query, Rcode::Other(2)));
    }

    #[test]
    fn an_answer_with_another_id_is_an_error_and_caches_nothing() {
        refused(|query| {
            let mut answer = listing_everything(&query, Rcode::NoError);
            answer.id = answer.id.wrapping_add(1);
            answer
        });
    }
}
