//! Experiment runners: one function per paper table/figure.
//!
//! Each runner returns typed rows; the `figures` binary of
//! `spamaware-bench` prints them in the paper's format, and integration
//! tests pin the qualitative shapes. Every runner accepts a [`Scale`] so
//! tests can run in seconds while `--full` regenerations use paper-sized
//! inputs.

use crate::combined_workload;
use spamaware_dnsbl::{
    paper_servers, BlacklistDb, CacheScheme, CachingResolver, DnsblServer, LatencyModel,
};
use spamaware_mfs::{DiskProfile, Layout};
use spamaware_netaddr::Ipv4;
use spamaware_server::{run, ClientModel, DnsConfig, RunReport, ServerConfig};
use spamaware_sim::{det_rng, LogHistogram, Nanos, Readout};
use spamaware_trace::{
    bounce_sweep_trace, mfs_sequence_trace, EcnSeries, SinkholeConfig, SinkholeTrace, Trace,
    TraceStats, UnivConfig, UnivTrace,
};

/// How big to run an experiment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale {
    /// Trace scale factor in `(0, 1]` relative to the paper's trace sizes.
    pub trace: f64,
    /// Virtual seconds simulated per measured point (paper: 300 s runs).
    pub seconds: u64,
}

impl Scale {
    /// Fast settings for tests (~1% traces, 20 s points).
    pub fn quick() -> Scale {
        Scale {
            trace: 0.05,
            seconds: 20,
        }
    }

    /// Paper-sized settings (full traces, 5-minute points).
    pub fn full() -> Scale {
        Scale {
            trace: 1.0,
            seconds: 300,
        }
    }

    fn horizon(&self) -> Nanos {
        Nanos::from_secs(self.seconds)
    }
}

/// The paper's default DNSBL server over a blacklist, with the median
/// latency model of the Fig. 5 population.
pub fn default_dnsbl(blacklist: impl IntoIterator<Item = Ipv4>) -> DnsblServer {
    DnsblServer::new(
        "bl.spamaware.test",
        blacklist.into_iter().collect::<BlacklistDb>(),
        LatencyModel::new(55.0, 0.9, 0.06),
    )
}

const DAY: Nanos = Nanos::from_secs(86_400);

// ---------------------------------------------------------------- Table 1

/// Table 1: statistics of the two generated traces.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct Table1 {
    /// Sinkhole trace statistics.
    pub sinkhole: TraceStats,
    /// Univ trace statistics.
    pub univ: TraceStats,
}

/// Regenerates Table 1.
pub fn table1(scale: Scale) -> Table1 {
    let sink = SinkholeConfig::scaled(scale.trace).generate();
    let univ = UnivConfig {
        bounce_fraction: 0.0,
        unfinished_fraction: 0.0,
        ..UnivConfig::scaled(scale.trace)
    }
    .generate();
    Table1 {
        sinkhole: TraceStats::of(&sink.trace),
        univ: TraceStats::of(&univ.trace),
    }
}

// ---------------------------------------------------------------- Fig. 3

/// Regenerates the Fig. 3 daily ECN bounce series (395 days).
pub fn fig03() -> EcnSeries {
    EcnSeries::generate(0xEC, 395)
}

// ---------------------------------------------------------------- Fig. 4

/// Fig. 4: CDF of recipients per connection in the sinkhole trace.
pub fn fig04(scale: Scale) -> Vec<(u32, f64)> {
    let sink = SinkholeConfig::scaled(scale.trace).generate();
    let mut counts = [0u64; 32];
    let mut total = 0u64;
    for c in &sink.trace.connections {
        for m in c.mails() {
            let r = (m.valid_rcpts.len()).min(31);
            counts[r] += 1;
            total += 1;
        }
    }
    let mut cdf = Vec::new();
    let mut acc = 0u64;
    for (r, n) in counts.iter().enumerate().skip(1) {
        acc += n;
        cdf.push((r as u32, acc as f64 / total as f64));
        if acc == total {
            break;
        }
    }
    cdf
}

// ---------------------------------------------------------------- Fig. 5

/// Fig. 5: per-DNSBL cold-query latency CDFs (ns) over the sinkhole's
/// unique spammer IPs.
pub fn fig05(scale: Scale) -> Vec<(&'static str, Readout)> {
    let sink = SinkholeConfig::scaled(scale.trace).generate();
    let ips: std::collections::HashSet<Ipv4> =
        sink.trace.connections.iter().map(|c| c.client_ip).collect();
    let mut rng = det_rng(5);
    paper_servers()
        .into_iter()
        .map(|(name, model)| {
            let h = LogHistogram::new();
            for _ in &ips {
                h.record(model.sample(&mut rng).as_nanos());
            }
            (name, Readout::from(&h))
        })
        .collect()
}

// ---------------------------------------------------------------- Fig. 8

/// One Fig. 8 sweep point.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct Fig8Point {
    /// Bounce ratio of the offered workload.
    pub bounce_ratio: f64,
    /// Vanilla-architecture run.
    pub vanilla: RunReport,
    /// Hybrid-architecture run.
    pub hybrid: RunReport,
}

/// Fig. 8: goodput vs bounce ratio for both architectures (closed-system
/// client, synthetic Univ-size trace).
pub fn fig08(scale: Scale, ratios: &[f64]) -> Vec<Fig8Point> {
    let conns = ((20_000.0 * scale.trace * 20.0) as usize).clamp(2_000, 40_000);
    ratios
        .iter()
        .map(|&b| {
            let trace = bounce_sweep_trace(42, conns, b, 400);
            let client = ClientModel::Closed { concurrency: 600 };
            let vanilla = run(&trace, ServerConfig::vanilla(), client, scale.horizon());
            let hybrid = run(&trace, ServerConfig::hybrid(), client, scale.horizon());
            Fig8Point {
                bounce_ratio: b,
                vanilla,
                hybrid,
            }
        })
        .collect()
}

// ---------------------------------------------------------- Figs. 10 / 11

/// One Figs. 10/11 sweep point: deliveries/sec per layout at a recipient
/// count.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct Fig10Point {
    /// Recipients per connection.
    pub rcpts: u8,
    /// `(layout, mails written per second)` in the paper's legend order.
    pub throughput: Vec<(Layout, f64)>,
}

/// Figs. 10 (Ext3) / 11 (Reiser): mail-write throughput of the four
/// storage layouts vs recipients per connection.
pub fn fig10_11(scale: Scale, profile: DiskProfile, rcpt_counts: &[u8]) -> Vec<Fig10Point> {
    rcpt_counts
        .iter()
        .map(|&r| {
            let trace = mfs_sequence_trace(7, 2_000, r, 15);
            let throughput = Layout::ALL
                .iter()
                .map(|&layout| {
                    let cfg = ServerConfig {
                        layout,
                        disk: profile,
                        ..ServerConfig::vanilla()
                    };
                    let rep = run(
                        &trace,
                        cfg,
                        ClientModel::Closed { concurrency: 600 },
                        scale.horizon(),
                    );
                    (layout, rep.delivery_throughput())
                })
                .collect();
            Fig10Point {
                rcpts: r,
                throughput,
            }
        })
        .collect()
}

/// §6.3's final measurement: MFS vs vanilla postfix mail throughput under
/// the sinkhole trace (paper: ≈ +20% at ~7 recipients/connection).
pub fn mfs_sinkhole(scale: Scale) -> (RunReport, RunReport) {
    let sink = SinkholeConfig::scaled(scale.trace).generate();
    let client = ClientModel::Closed { concurrency: 600 };
    let vanilla = run(
        &sink.trace,
        ServerConfig::vanilla(),
        client,
        scale.horizon(),
    );
    let mfs = run(
        &sink.trace,
        ServerConfig {
            layout: Layout::Mfs,
            ..ServerConfig::vanilla()
        },
        client,
        scale.horizon(),
    );
    (vanilla, mfs)
}

// ---------------------------------------------------------------- Fig. 12

/// Fig. 12: CDF of blacklisted IPs per /24 prefix.
pub fn fig12(scale: Scale) -> Vec<(u32, f64)> {
    let sink = SinkholeConfig::scaled(scale.trace).generate();
    let mut counts: Vec<u32> = sink.per_prefix_listed.iter().map(|(_, c)| *c).collect();
    counts.sort_unstable();
    let n = counts.len() as f64;
    let mut cdf = Vec::new();
    for x in 1..=254u32 {
        let below = counts.partition_point(|&c| c <= x);
        cdf.push((x, below as f64 / n));
        if below == counts.len() {
            break;
        }
    }
    cdf
}

// ---------------------------------------------------------------- Fig. 13

/// Fig. 13: interarrival-time CDFs (ns) for same-IP and same-/24 spam.
pub fn fig13(scale: Scale) -> (Readout, Readout) {
    let sink = SinkholeConfig::scaled(scale.trace).generate();
    let mut per_ip: std::collections::HashMap<Ipv4, Nanos> = std::collections::HashMap::new();
    let mut per_prefix: std::collections::HashMap<_, Nanos> = std::collections::HashMap::new();
    let ip_hist = LogHistogram::new();
    let prefix_hist = LogHistogram::new();
    for c in &sink.trace.connections {
        if let Some(prev) = per_ip.insert(c.client_ip, c.arrival) {
            ip_hist.record((c.arrival - prev).as_nanos());
        }
        if let Some(prev) = per_prefix.insert(c.client_ip.prefix24(), c.arrival) {
            prefix_hist.record((c.arrival - prev).as_nanos());
        }
    }
    (Readout::from(&ip_hist), Readout::from(&prefix_hist))
}

// ---------------------------------------------------------------- Fig. 14

/// One Fig. 14 sweep point.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct Fig14Point {
    /// Offered connection rate (connections/second).
    pub offered_rate: f64,
    /// Run with classic per-IP caching.
    pub ip_caching: RunReport,
    /// Run with prefix-based caching.
    pub prefix_caching: RunReport,
}

/// Fig. 14: throughput vs offered connection rate under the two DNSBL
/// schemes (open-system client, process limit 1000).
pub fn fig14(scale: Scale, rates: &[f64]) -> Vec<Fig14Point> {
    let sink = SinkholeConfig::scaled(scale.trace.max(0.25)).generate();
    let server = default_dnsbl(sink.blacklisted.iter().copied());
    rates
        .iter()
        .map(|&rate| {
            let [ip_caching, prefix_caching] =
                [CacheScheme::PerIp, CacheScheme::PerPrefix].map(|scheme| {
                    let cfg = ServerConfig {
                        process_limit: 1000,
                        dns: Some(DnsConfig {
                            scheme,
                            ttl: DAY,
                            server: server.clone(),
                        }),
                        ..ServerConfig::vanilla()
                    };
                    run(
                        &sink.trace,
                        cfg,
                        ClientModel::Open { rate_per_sec: rate },
                        scale.horizon(),
                    )
                });
            Fig14Point {
                offered_rate: rate,
                ip_caching,
                prefix_caching,
            }
        })
        .collect()
}

// ---------------------------------------------------------------- Fig. 15

/// Fig. 15: DNSBL lookup-time CDFs and cache statistics for the sinkhole
/// trace replayed through the resolver at trace timestamps.
#[derive(Debug, Clone)]
pub struct Fig15 {
    /// `(scheme, lookup latency (ns), hit ratio, query fraction)`.
    pub rows: Vec<(CacheScheme, Readout, f64, f64)>,
}

/// Runs the Fig. 15 replay.
pub fn fig15(scale: Scale) -> Fig15 {
    let registry = spamaware_metrics::Registry::new(std::sync::Arc::new(
        spamaware_metrics::ManualClock::new(),
    ));
    fig15_with_metrics(scale, &registry)
}

/// Runs the Fig. 15 replay with each scheme's resolver instrumented into
/// `registry` (prefixes `dnsbl.none`, `dnsbl.per_ip`, `dnsbl.per_prefix`),
/// so the benchmark harness can emit a metrics snapshot beside its JSON.
pub fn fig15_with_metrics(scale: Scale, registry: &spamaware_metrics::Registry) -> Fig15 {
    let sink = SinkholeConfig::scaled(scale.trace).generate();
    let server = default_dnsbl(sink.blacklisted.iter().copied());
    let rows = [
        CacheScheme::None,
        CacheScheme::PerIp,
        CacheScheme::PerPrefix,
    ]
    .into_iter()
    .map(|scheme| {
        let prefix = match scheme {
            CacheScheme::None => "dnsbl.none",
            CacheScheme::PerIp => "dnsbl.per_ip",
            CacheScheme::PerPrefix => "dnsbl.per_prefix",
        };
        let mut resolver = CachingResolver::new(scheme, DAY.max(Nanos::from_secs(1)))
            .with_metrics(registry, prefix);
        let mut rng = det_rng(15);
        for c in &sink.trace.connections {
            resolver.lookup(c.client_ip, c.arrival, &server, &mut rng);
        }
        let s = resolver.stats();
        let (hit_ratio, query_fraction) = (s.hit_ratio(), s.query_fraction());
        (scheme, s.latency_ns, hit_ratio, query_fraction)
    })
    .collect();
    Fig15 { rows }
}

// ---------------------------------------------------------------- §8

/// Which §8 workload a combined run uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum CombinedWorkload {
    /// The sinkhole spam trace plus ECN bounce levels (paper: +40%).
    Spam,
    /// The Univ departmental trace (paper: +18%).
    Univ,
}

/// Result of a §8 combined-optimization comparison.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct CombinedResult {
    /// Which workload ran.
    pub workload: CombinedWorkload,
    /// Unmodified postfix: vanilla architecture, mbox storage, per-IP
    /// DNSBL caching.
    pub vanilla: RunReport,
    /// All three optimizations: fork-after-trust, MFS, prefix caching.
    pub spamaware: RunReport,
}

impl CombinedResult {
    /// Relative mail-throughput gain of the spam-aware server.
    pub fn throughput_gain(&self) -> f64 {
        self.spamaware.goodput() / self.vanilla.goodput() - 1.0
    }

    /// Relative reduction in DNSBL queries issued, normalized per lookup
    /// (the runs may complete different connection counts).
    ///
    /// `combined()` always configures DNS on both runs; if a caller
    /// builds a [`CombinedResult`] by hand without it, the reduction is
    /// reported as 0.0 (nothing measured) rather than panicking.
    pub fn dns_query_reduction(&self) -> f64 {
        match (self.vanilla.dns.as_ref(), self.spamaware.dns.as_ref()) {
            (Some(v), Some(s)) => 1.0 - s.query_fraction() / v.query_fraction(),
            _ => 0.0,
        }
    }
}

/// Runs the §8 combined experiment on a workload.
pub fn combined(scale: Scale, workload: CombinedWorkload) -> CombinedResult {
    let (trace, blacklist): (Trace, Vec<Ipv4>) = match workload {
        CombinedWorkload::Spam => {
            let SinkholeTrace {
                trace, blacklisted, ..
            } = SinkholeConfig::scaled(scale.trace).generate();
            let ecn = fig03();
            (
                combined_workload(&trace, ecn.mean_bounce(), ecn.mean_unfinished(), 8),
                blacklisted,
            )
        }
        CombinedWorkload::Univ => {
            let UnivTrace { trace, blacklisted } = UnivConfig::scaled(scale.trace).generate();
            (trace, blacklisted)
        }
    };
    let server = default_dnsbl(blacklist);
    let client = ClientModel::Closed { concurrency: 600 };
    let vanilla = run(
        &trace,
        ServerConfig {
            dns: Some(DnsConfig {
                scheme: CacheScheme::PerIp,
                ttl: DAY,
                server: server.clone(),
            }),
            ..ServerConfig::vanilla()
        },
        client,
        scale.horizon(),
    );
    let spamaware = run(
        &trace,
        ServerConfig {
            layout: Layout::Mfs,
            dns: Some(DnsConfig {
                scheme: CacheScheme::PerPrefix,
                ttl: DAY,
                server,
            }),
            ..ServerConfig::hybrid()
        },
        client,
        scale.horizon(),
    );
    CombinedResult {
        workload,
        vanilla,
        spamaware,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig04_cdf_is_monotone_with_5_to_15_band() {
        let cdf = fig04(Scale::quick());
        for w in cdf.windows(2) {
            assert!(w[0].1 <= w[1].1);
        }
        let at4 = cdf.iter().find(|(r, _)| *r == 4).unwrap().1;
        let at15 = cdf.iter().find(|(r, _)| *r == 15).unwrap().1;
        assert!(at15 - at4 > 0.6, "5..15 band mass {}", at15 - at4);
    }

    #[test]
    fn fig12_anchors() {
        let cdf = fig12(Scale {
            trace: 0.25,
            seconds: 1,
        });
        let over10 = 1.0 - cdf.iter().find(|(x, _)| *x == 10).unwrap().1;
        assert!((0.30..=0.50).contains(&over10), "P(>10) {over10}");
    }

    #[test]
    fn fig13_prefix_interarrivals_are_shorter() {
        let (ip, prefix) = fig13(Scale::quick());
        assert!(prefix.quantile(50) < ip.quantile(50));
    }

    #[test]
    fn fig15_prefix_beats_ip_caching() {
        let f = fig15(Scale {
            trace: 0.3,
            seconds: 1,
        });
        let hit = |s: CacheScheme| f.rows.iter().find(|r| r.0 == s).unwrap().2;
        let qf = |s: CacheScheme| f.rows.iter().find(|r| r.0 == s).unwrap().3;
        assert_eq!(hit(CacheScheme::None), 0.0);
        assert!((0.68..=0.80).contains(&hit(CacheScheme::PerIp)));
        assert!((0.79..=0.90).contains(&hit(CacheScheme::PerPrefix)));
        let reduction = 1.0 - qf(CacheScheme::PerPrefix) / qf(CacheScheme::PerIp);
        assert!((0.25..=0.55).contains(&reduction), "reduction {reduction}");
    }

    #[test]
    fn table1_spam_ratio_matches() {
        let t = table1(Scale::quick());
        assert!((0.60..=0.74).contains(&t.univ.spam_ratio));
        assert!((6.0..=8.0).contains(&t.sinkhole.mean_rcpts));
    }
}
