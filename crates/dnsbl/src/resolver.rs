//! The mail server's caching DNSBL stub resolver.
//!
//! This is where the paper's §7 optimization lives: the resolver can cache
//! per-IP answers (the classic scheme) or per-/25 bitmaps (DNSBLv6). With
//! botnet traffic, bots from the same /25 share one cached bitmap, lifting
//! the hit ratio from ≈74% to ≈84% on the sinkhole trace (Fig. 15) and
//! cutting queries issued by ≈39%.

use crate::DnsblServer;
use rand::Rng;
use spamaware_metrics::{Counter, LogHistogram, Registry};
use spamaware_netaddr::{Ipv4, Prefix25, PrefixBitmap};
use spamaware_sim::{Nanos, Readout};
use std::collections::{BTreeSet, HashMap};
use std::hash::Hash;
use std::sync::Arc;

/// The resolver's one set of books: its own instruments until
/// [`CachingResolver::with_metrics`] swaps in a registry's, and what
/// [`CachingResolver::stats`] reads either way.
#[derive(Debug, Default)]
struct ResolverMetrics {
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    evictions: Arc<Counter>,
    /// Virtual (model) lookup latency in nanoseconds.
    lookup_ns: Arc<LogHistogram>,
}

/// Which caching granularity the resolver uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CacheScheme {
    /// No caching: every lookup queries the DNSBL.
    None,
    /// Classic per-IP caching of A answers.
    PerIp,
    /// DNSBLv6 per-/25 bitmap caching.
    PerPrefix,
}

/// Result of one blacklist lookup through the resolver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LookupOutcome {
    /// Whether the client IP is blacklisted.
    pub listed: bool,
    /// Time the lookup took (zero-ish on a cache hit).
    pub latency: Nanos,
    /// Whether the answer came from cache.
    pub cache_hit: bool,
}

/// Aggregate resolver statistics (the Fig. 15 numbers).
#[derive(Debug, Clone)]
pub struct ResolverStats {
    /// Lookups performed.
    pub lookups: u64,
    /// Lookups answered from cache.
    pub hits: u64,
    /// DNS queries actually issued to the DNSBL.
    pub queries_issued: u64,
    /// Entries evicted due to the capacity bound.
    pub evictions: u64,
    /// Lookup-time distribution in nanoseconds (a hit records
    /// [`CachingResolver::HIT_COST`]).
    pub latency_ns: Readout,
}

impl ResolverStats {
    /// Cache hit ratio (0 when no lookups yet).
    pub fn hit_ratio(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups as f64
        }
    }

    /// Fraction of lookups that issued a DNS query.
    pub fn query_fraction(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.queries_issued as f64 / self.lookups as f64
        }
    }
}

/// A DNSBL answer as fetched, in the shape its query returns.
#[derive(Debug, Clone, Copy)]
pub enum Fetched {
    /// A per-IP (A record) answer: whether the queried IP is listed.
    Listed(bool),
    /// A DNSBLv6 (AAAA record) answer: the queried IP's whole /25.
    Bitmap(PrefixBitmap),
}

/// One expiring cache: a map for lookups plus the same keys ordered by
/// `(expiry, key)`, so the soonest to expire is always the first.
#[derive(Debug)]
struct Cache<K, V> {
    entries: HashMap<K, (Nanos, V)>,
    by_expiry: BTreeSet<(Nanos, K)>,
}

impl<K: Copy + Ord + Hash, V> Cache<K, V> {
    fn new() -> Cache<K, V> {
        Cache {
            entries: HashMap::new(),
            by_expiry: BTreeSet::new(),
        }
    }

    /// The value under `key`, if it is still unexpired at `now`.
    fn get(&self, key: &K, now: Nanos) -> Option<&V> {
        match self.entries.get(key) {
            Some((expiry, value)) if *expiry > now => Some(value),
            _ => None,
        }
    }

    /// Caches `value` under `key` until `expiry`. A cache that has
    /// reached its `cap` first drops its expired entries, then the
    /// soonest to expire until a slot is free; ties go to the smaller
    /// key. Returns how many live entries had to be evicted.
    fn insert(&mut self, key: K, value: V, expiry: Nanos, now: Nanos, cap: Option<usize>) -> u64 {
        let mut evicted = 0;
        if let Some(cap) = cap.filter(|&cap| self.entries.len() >= cap) {
            while let Some(&(soonest, victim)) = self.by_expiry.first() {
                let live = soonest > now;
                if live && self.entries.len() < cap {
                    break;
                }
                self.by_expiry.pop_first();
                self.entries.remove(&victim);
                evicted += u64::from(live);
            }
        }
        if let Some((old, _)) = self.entries.insert(key, (expiry, value)) {
            self.by_expiry.remove(&(old, key));
        }
        self.by_expiry.insert((expiry, key));
        evicted
    }
}

/// A TTL-based caching stub resolver for DNSBL lookups.
///
/// Cached entries expire `ttl` after they were fetched (the paper uses
/// 24 h, as blacklists "are updated rather infrequently"). Cache hits cost
/// [`CachingResolver::HIT_COST`] (an in-memory lookup); misses cost the
/// server's sampled cold latency.
///
/// # Example
///
/// ```
/// use spamaware_dnsbl::{BlacklistDb, CacheScheme, CachingResolver, DnsblServer, LatencyModel};
/// use spamaware_netaddr::Ipv4;
/// use spamaware_sim::Nanos;
///
/// let bad = Ipv4::new(203, 0, 113, 7);
/// let neighbour = Ipv4::new(203, 0, 113, 8);
/// let server = DnsblServer::new(
///     "bl.example",
///     [bad].into_iter().collect(),
///     LatencyModel::new(40.0, 0.8, 0.05),
/// );
/// let mut resolver = CachingResolver::new(CacheScheme::PerPrefix, Nanos::from_secs(86_400));
/// let mut rng = spamaware_sim::det_rng(1);
///
/// let first = resolver.lookup(bad, Nanos::ZERO, &server, &mut rng);
/// assert!(first.listed && !first.cache_hit);
/// // The neighbour shares the /25 bitmap: a hit, and correctly unlisted.
/// let second = resolver.lookup(neighbour, Nanos::from_secs(1), &server, &mut rng);
/// assert!(!second.listed && second.cache_hit);
/// ```
#[derive(Debug)]
pub struct CachingResolver {
    scheme: CacheScheme,
    ttl: Nanos,
    capacity: Option<usize>,
    ip_cache: Cache<Ipv4, bool>,
    prefix_cache: Cache<Prefix25, PrefixBitmap>,
    queries_issued: u64,
    metrics: ResolverMetrics,
}

impl CachingResolver {
    /// Cost charged for answering from cache.
    pub const HIT_COST: Nanos = Nanos::from_micros(5);

    /// Creates a resolver with the given scheme and TTL.
    ///
    /// # Panics
    ///
    /// Panics if `ttl` is zero while a caching scheme is selected.
    pub fn new(scheme: CacheScheme, ttl: Nanos) -> CachingResolver {
        assert!(
            scheme == CacheScheme::None || !ttl.is_zero(),
            "caching scheme needs a nonzero TTL"
        );
        CachingResolver {
            scheme,
            ttl,
            capacity: None,
            ip_cache: Cache::new(),
            prefix_cache: Cache::new(),
            queries_issued: 0,
            metrics: ResolverMetrics::default(),
        }
    }

    /// Keeps the cache hits/misses/evictions and the (virtual) lookup
    /// latency in `registry`, under `<prefix>.cache_hit`,
    /// `<prefix>.cache_miss`, `<prefix>.eviction`, and
    /// `<prefix>.lookup_ns`, instead of in instruments of the resolver's
    /// own; [`stats`](Self::stats) then reads those. Call it before the
    /// first lookup. The live DNSBL agent's prefix is `dnsbl`.
    pub fn with_metrics(mut self, registry: &Registry, prefix: &str) -> CachingResolver {
        self.metrics = ResolverMetrics {
            hits: registry.counter(&format!("{prefix}.cache_hit")),
            misses: registry.counter(&format!("{prefix}.cache_miss")),
            evictions: registry.counter(&format!("{prefix}.eviction")),
            lookup_ns: registry.histogram(&format!("{prefix}.lookup_ns")),
        };
        self
    }

    /// Bounds the cache to `capacity` entries. When full, entries closest
    /// to expiry are evicted first (real resolver caches are
    /// memory-bounded; the unbounded default matches the paper's
    /// evaluation, which never exceeds a few tens of thousands of
    /// entries).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_capacity(mut self, capacity: usize) -> CachingResolver {
        assert!(capacity > 0, "capacity must be positive");
        self.capacity = Some(capacity);
        self
    }

    /// The configured scheme.
    pub fn scheme(&self) -> CacheScheme {
        self.scheme
    }

    /// Looks up `ip` at virtual time `now`, consulting the cache first.
    pub fn lookup<R: Rng + ?Sized>(
        &mut self,
        ip: Ipv4,
        now: Nanos,
        server: &DnsblServer,
        rng: &mut R,
    ) -> LookupOutcome {
        let outcome = match self.probe(ip, now) {
            Some(listed) => LookupOutcome {
                listed,
                latency: Self::HIT_COST,
                cache_hit: true,
            },
            None => {
                let (answer, latency) = if self.scheme == CacheScheme::PerPrefix {
                    let (bitmap, latency) = server.query_v6(ip.prefix25(), rng);
                    (Fetched::Bitmap(bitmap), latency)
                } else {
                    let (code, latency) = server.query_v4(ip, rng);
                    (Fetched::Listed(code.is_some()), latency)
                };
                LookupOutcome {
                    listed: self.insert(ip, now, answer),
                    latency,
                    cache_hit: false,
                }
            }
        };
        self.metrics.lookup_ns.record(outcome.latency.as_nanos());
        outcome
    }

    /// The first half of [`lookup`](Self::lookup): the verdict for `ip`
    /// from an entry still unexpired at `now`, if the cache holds one.
    /// Counts the lookup, as a hit or a miss. A caller that fetches the
    /// answer itself (the live server asks over UDP) follows a `None`
    /// with [`insert`](Self::insert) once it has one.
    pub fn probe(&mut self, ip: Ipv4, now: Nanos) -> Option<bool> {
        let cached = match self.scheme {
            CacheScheme::None => None,
            CacheScheme::PerIp => self.ip_cache.get(&ip, now).copied(),
            CacheScheme::PerPrefix => self
                .prefix_cache
                .get(&ip.prefix25(), now)
                .map(|bitmap| bitmap.contains(ip)),
        };
        match cached {
            Some(_) => self.metrics.hits.inc(),
            None => self.metrics.misses.inc(),
        }
        cached
    }

    /// The second half: counts one query issued and caches its `answer`
    /// for `ip` until `now + ttl`, first making room as
    /// [`with_capacity`](Self::with_capacity) describes. Returns whether
    /// the answer lists `ip`. The bitmap scheme can only cache a bitmap.
    pub fn insert(&mut self, ip: Ipv4, now: Nanos, answer: Fetched) -> bool {
        self.queries_issued += 1;
        let listed = match answer {
            Fetched::Listed(listed) => listed,
            Fetched::Bitmap(bitmap) => bitmap.contains(ip),
        };
        let (expiry, cap) = (now + self.ttl, self.capacity);
        let evicted = match (self.scheme, answer) {
            (CacheScheme::PerIp, _) => self.ip_cache.insert(ip, listed, expiry, now, cap),
            (CacheScheme::PerPrefix, Fetched::Bitmap(bitmap)) => {
                let prefix = ip.prefix25();
                self.prefix_cache.insert(prefix, bitmap, expiry, now, cap)
            }
            _ => 0,
        };
        self.metrics.evictions.add(evicted);
        listed
    }

    /// Statistics so far, read out of the instruments.
    pub fn stats(&self) -> ResolverStats {
        let hits = self.metrics.hits.get();
        ResolverStats {
            lookups: hits + self.metrics.misses.get(),
            hits,
            queries_issued: self.queries_issued,
            evictions: self.metrics.evictions.get(),
            latency_ns: Readout::from(&*self.metrics.lookup_ns),
        }
    }

    /// Number of live cache entries (either granularity).
    pub fn cached_entries(&self) -> usize {
        self.ip_cache.entries.len() + self.prefix_cache.entries.len()
    }
}

#[cfg(test)]
mod capacity_tests {
    use super::*;
    use crate::{BlacklistDb, LatencyModel};
    use proptest::prelude::*;
    use spamaware_sim::det_rng;

    fn tiny_server() -> DnsblServer {
        let db: BlacklistDb = (0..64u8).map(|i| Ipv4::new(10, 0, i, 1)).collect();
        DnsblServer::new("bl.example", db, LatencyModel::new(40.0, 0.8, 0.0))
    }

    #[test]
    fn capacity_bound_is_enforced() {
        let s = tiny_server();
        let mut r =
            CachingResolver::new(CacheScheme::PerIp, Nanos::from_secs(3600)).with_capacity(8);
        let mut rng = det_rng(90);
        for i in 0..64u8 {
            r.lookup(
                Ipv4::new(10, 0, i, 1),
                Nanos::from_secs(i as u64),
                &s,
                &mut rng,
            );
        }
        assert!(r.cached_entries() <= 8);
        assert!(r.stats().evictions >= 56);
    }

    #[test]
    fn eviction_prefers_expired_entries() {
        let s = tiny_server();
        let mut r = CachingResolver::new(CacheScheme::PerIp, Nanos::from_secs(10)).with_capacity(2);
        let mut rng = det_rng(91);
        r.lookup(Ipv4::new(10, 0, 0, 1), Nanos::from_secs(0), &s, &mut rng);
        r.lookup(Ipv4::new(10, 0, 1, 1), Nanos::from_secs(1), &s, &mut rng);
        // Both expired by t=20; inserting a third drops them without
        // counting capacity evictions.
        r.lookup(Ipv4::new(10, 0, 2, 1), Nanos::from_secs(20), &s, &mut rng);
        assert_eq!(r.stats().evictions, 0);
        assert_eq!(r.cached_entries(), 1);
    }

    #[test]
    fn bounded_cache_still_correct() {
        let s = tiny_server();
        let mut r =
            CachingResolver::new(CacheScheme::PerPrefix, Nanos::from_secs(3600)).with_capacity(4);
        let mut rng = det_rng(92);
        for round in 0..3u64 {
            for i in 0..16u8 {
                let ip = Ipv4::new(10, 0, i, 1);
                let o = r.lookup(ip, Nanos::from_secs(round * 100 + i as u64), &s, &mut rng);
                assert!(o.listed, "{ip} round {round}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = CachingResolver::new(CacheScheme::PerIp, Nanos::from_secs(1)).with_capacity(0);
    }

    /// The scan [`Cache::insert`] replaced, kept as its oracle: frees a
    /// slot in a full cache by dropping expired entries, then the minimum
    /// by `(expiry, key)`. Returns how many live entries it evicted.
    #[allow(clippy::disallowed_methods)] // a min by (expiry, key) is total: hash order cannot reach it
    fn make_room<K: Copy + Ord + Hash, V>(
        cache: &mut HashMap<K, (Nanos, V)>,
        cap: usize,
        now: Nanos,
    ) -> u64 {
        if cache.len() < cap {
            return 0;
        }
        cache.retain(|_, (expiry, _)| *expiry > now);
        let mut evicted = 0;
        while cache.len() >= cap {
            let victim = cache
                .iter()
                .min_by_key(|(k, (expiry, _))| (*expiry, **k))
                .map(|(k, _)| *k);
            let Some(victim) = victim else { break };
            cache.remove(&victim);
            evicted += 1;
        }
        evicted
    }

    /// One lookup of `key` in the oracle's `cache` at `now`: the cached
    /// value and `true`, or `fetched`, cached after [`make_room`], and
    /// `false`.
    fn oracle_lookup<K: Copy + Ord + Hash, V: Copy>(
        cache: &mut HashMap<K, (Nanos, V)>,
        evictions: &mut u64,
        key: K,
        fetched: V,
        now: Nanos,
        cap: usize,
    ) -> (V, bool) {
        match cache.get(&key) {
            Some(&(expiry, value)) if expiry > now => (value, true),
            _ => {
                *evictions += make_room(cache, cap, now);
                cache.insert(key, (now + TTL, fetched));
                (fetched, false)
            }
        }
    }

    const TTL: Nanos = Nanos::from_secs(10);

    /// Host `i % 8` of /25 number `i / 8`: 10.0.0.0/25, 10.0.0.128/25,
    /// 10.0.1.0/25.
    fn stream_ip(i: u32) -> Ipv4 {
        Ipv4::from_u32(0x0a00_0000 + i / 8 * 128 + i % 8)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        /// The indexed cache evicts exactly the victims the scan chose:
        /// same answers, same hits, same eviction count and same size
        /// after every lookup of a random stream.
        #[test]
        fn indexed_cache_matches_the_scan_it_replaced(
            per_ip in any::<bool>(),
            cap in (0usize..4).prop_map(|i| [1, 2, 3, 8][i]),
            // (host, gap in ms): repeats, short gaps, and gaps either
            // side of the 10 s TTL.
            stream in proptest::collection::vec(
                (0u32..24, prop_oneof![Just(0u64), 0u64..3_000, 9_000u64..11_000]),
                1..200,
            ),
        ) {
            // Every third host listed.
            let db: BlacklistDb = (0..24).step_by(3).map(stream_ip).collect();
            let scheme = if per_ip { CacheScheme::PerIp } else { CacheScheme::PerPrefix };
            let server = DnsblServer::new("bl.example", db.clone(), LatencyModel::new(40.0, 0.8, 0.0));
            let mut r = CachingResolver::new(scheme, TTL).with_capacity(cap);
            let (mut ips, mut prefixes, mut evictions) = (HashMap::new(), HashMap::new(), 0);
            let mut rng = det_rng(93);
            let mut now = Nanos::ZERO;
            for (i, gap_ms) in stream {
                now += Nanos::from_millis(gap_ms);
                let ip = stream_ip(i);
                let o = r.lookup(ip, now, &server, &mut rng);
                let expected = if per_ip {
                    oracle_lookup(&mut ips, &mut evictions, ip, db.lookup(ip).is_some(), now, cap)
                } else {
                    let prefix = ip.prefix25();
                    let (bitmap, hit) =
                        oracle_lookup(&mut prefixes, &mut evictions, prefix, db.bitmap(prefix), now, cap);
                    (bitmap.contains(ip), hit)
                };
                prop_assert_eq!((o.listed, o.cache_hit), expected);
                prop_assert_eq!(r.stats().evictions, evictions);
                prop_assert_eq!(r.cached_entries(), ips.len() + prefixes.len());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BlacklistDb, LatencyModel};
    use spamaware_sim::det_rng;

    fn server() -> DnsblServer {
        let db: BlacklistDb = [Ipv4::new(203, 0, 113, 7), Ipv4::new(203, 0, 113, 77)]
            .into_iter()
            .collect();
        DnsblServer::new("bl.example", db, LatencyModel::new(40.0, 0.8, 0.05))
    }

    const DAY: Nanos = Nanos::from_secs(86_400);

    #[test]
    fn no_cache_always_queries() {
        let s = server();
        let mut r = CachingResolver::new(CacheScheme::None, Nanos::ZERO);
        let mut rng = det_rng(70);
        for i in 0..5 {
            let o = r.lookup(Ipv4::new(203, 0, 113, 7), Nanos::from_secs(i), &s, &mut rng);
            assert!(!o.cache_hit);
            assert!(o.listed);
        }
        assert_eq!(r.stats().queries_issued, 5);
        assert_eq!(r.stats().hit_ratio(), 0.0);
    }

    #[test]
    fn per_ip_cache_hits_same_ip_only() {
        let s = server();
        let mut r = CachingResolver::new(CacheScheme::PerIp, DAY);
        let mut rng = det_rng(71);
        let a = Ipv4::new(203, 0, 113, 7);
        let b = Ipv4::new(203, 0, 113, 8); // same /25, different IP
        assert!(!r.lookup(a, Nanos::ZERO, &s, &mut rng).cache_hit);
        assert!(r.lookup(a, Nanos::from_secs(60), &s, &mut rng).cache_hit);
        assert!(!r.lookup(b, Nanos::from_secs(61), &s, &mut rng).cache_hit);
        assert_eq!(r.stats().queries_issued, 2);
    }

    #[test]
    fn per_prefix_cache_covers_neighbours_exactly() {
        let s = server();
        let mut r = CachingResolver::new(CacheScheme::PerPrefix, DAY);
        let mut rng = det_rng(72);
        assert!(
            !r.lookup(Ipv4::new(203, 0, 113, 7), Nanos::ZERO, &s, &mut rng)
                .cache_hit
        );
        // Neighbour in same /25: hit, and correctly listed.
        let o = r.lookup(
            Ipv4::new(203, 0, 113, 77),
            Nanos::from_secs(9),
            &s,
            &mut rng,
        );
        assert!(o.cache_hit && o.listed);
        // Unlisted neighbour: hit, and correctly NOT listed (no punishment
        // of unlisted IPs — paper §7.1).
        let o = r.lookup(
            Ipv4::new(203, 0, 113, 9),
            Nanos::from_secs(10),
            &s,
            &mut rng,
        );
        assert!(o.cache_hit && !o.listed);
        // Other half of the /24 is a different /25: miss.
        let o = r.lookup(
            Ipv4::new(203, 0, 113, 200),
            Nanos::from_secs(11),
            &s,
            &mut rng,
        );
        assert!(!o.cache_hit);
        assert_eq!(r.stats().queries_issued, 2);
    }

    #[test]
    fn ttl_expiry_forces_requery() {
        let s = server();
        let mut r = CachingResolver::new(CacheScheme::PerIp, DAY);
        let mut rng = det_rng(73);
        let ip = Ipv4::new(203, 0, 113, 7);
        r.lookup(ip, Nanos::ZERO, &s, &mut rng);
        assert!(
            r.lookup(ip, DAY - Nanos::from_secs(1), &s, &mut rng)
                .cache_hit
        );
        assert!(
            !r.lookup(ip, DAY + Nanos::from_secs(1), &s, &mut rng)
                .cache_hit
        );
        assert_eq!(r.stats().queries_issued, 2);
    }

    #[test]
    fn negative_answers_are_cached_too() {
        let s = server();
        let mut r = CachingResolver::new(CacheScheme::PerIp, DAY);
        let mut rng = det_rng(74);
        let clean = Ipv4::new(8, 8, 8, 8);
        let first = r.lookup(clean, Nanos::ZERO, &s, &mut rng);
        assert!(!first.listed && !first.cache_hit);
        let second = r.lookup(clean, Nanos::from_secs(5), &s, &mut rng);
        assert!(!second.listed && second.cache_hit);
    }

    #[test]
    fn the_halves_serve_a_caller_that_fetches_for_itself() {
        let listed = Ipv4::new(203, 0, 113, 7);
        let neighbour = Ipv4::new(203, 0, 113, 8);
        let bitmap = server().query_v6(listed.prefix25(), &mut det_rng(79)).0;
        let mut r = CachingResolver::new(CacheScheme::PerPrefix, DAY);
        // A miss the caller could not resolve caches nothing.
        assert_eq!(r.probe(listed, Nanos::ZERO), None);
        assert_eq!(r.probe(listed, Nanos::from_secs(1)), None);
        assert!(r.insert(listed, Nanos::from_secs(1), Fetched::Bitmap(bitmap)));
        assert_eq!(r.probe(neighbour, Nanos::from_secs(2)), Some(false));
        assert_eq!(r.probe(listed, DAY + Nanos::from_secs(1)), None);
        let stats = r.stats();
        assert_eq!((stats.lookups, stats.hits, stats.queries_issued), (4, 1, 1));
        // A per-IP answer cannot fill a bitmap: reported, not cached.
        assert!(r.insert(neighbour, DAY, Fetched::Listed(true)));
        assert_eq!(r.cached_entries(), 1);
    }

    #[test]
    fn stats_ratios() {
        let s = server();
        let mut r = CachingResolver::new(CacheScheme::PerIp, DAY);
        let mut rng = det_rng(75);
        let ip = Ipv4::new(1, 1, 1, 1);
        for i in 0..4 {
            r.lookup(ip, Nanos::from_secs(i), &s, &mut rng);
        }
        assert_eq!(r.stats().lookups, 4);
        assert_eq!(r.stats().hits, 3);
        assert!((r.stats().hit_ratio() - 0.75).abs() < 1e-12);
        assert!((r.stats().query_fraction() - 0.25).abs() < 1e-12);
        assert_eq!(r.cached_entries(), 1);
    }

    #[test]
    fn hit_latency_is_negligible() {
        let s = server();
        let mut r = CachingResolver::new(CacheScheme::PerPrefix, DAY);
        let mut rng = det_rng(76);
        let ip = Ipv4::new(1, 1, 1, 1);
        r.lookup(ip, Nanos::ZERO, &s, &mut rng);
        let o = r.lookup(ip, Nanos::from_secs(1), &s, &mut rng);
        assert_eq!(o.latency, CachingResolver::HIT_COST);
    }

    #[test]
    #[should_panic(expected = "nonzero TTL")]
    fn zero_ttl_with_caching_rejected() {
        CachingResolver::new(CacheScheme::PerIp, Nanos::ZERO);
    }

    #[test]
    fn registry_metrics_track_hits_misses_and_latency() {
        let s = server();
        let registry = Registry::new(Arc::new(spamaware_metrics::ManualClock::new()));
        let mut r = CachingResolver::new(CacheScheme::PerIp, DAY).with_metrics(&registry, "dnsbl");
        let mut rng = det_rng(77);
        let ip = Ipv4::new(203, 0, 113, 7);
        for i in 0..4 {
            r.lookup(ip, Nanos::from_secs(i), &s, &mut rng);
        }
        assert_eq!(registry.counter_value("dnsbl.cache_hit"), Some(3));
        assert_eq!(registry.counter_value("dnsbl.cache_miss"), Some(1));
        assert_eq!(registry.counter_value("dnsbl.eviction"), Some(0));
        let stats = r.stats();
        assert_eq!((stats.lookups, stats.hits), (4, 3));
        assert_eq!(
            registry.histogram_count("dnsbl.lookup_ns"),
            Some(stats.lookups)
        );
        assert_eq!(stats.latency_ns.count, stats.lookups);
    }

    #[test]
    fn registry_metrics_count_capacity_evictions() {
        let db: BlacklistDb = (0..8u8).map(|i| Ipv4::new(10, 0, i, 1)).collect();
        let s = DnsblServer::new("bl.example", db, LatencyModel::new(40.0, 0.8, 0.0));
        let registry = Registry::new(Arc::new(spamaware_metrics::ManualClock::new()));
        let mut r = CachingResolver::new(CacheScheme::PerIp, Nanos::from_secs(3600))
            .with_capacity(2)
            .with_metrics(&registry, "dnsbl");
        let mut rng = det_rng(78);
        for i in 0..8u8 {
            r.lookup(
                Ipv4::new(10, 0, i, 1),
                Nanos::from_secs(i as u64),
                &s,
                &mut rng,
            );
        }
        let evicted = registry.counter_value("dnsbl.eviction");
        assert_eq!(evicted, Some(r.stats().evictions));
        assert!(evicted.is_some_and(|e| e >= 5), "{evicted:?}");
    }
}
