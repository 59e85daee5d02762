//! The printing code of every row of [`crate::TABLE`]: each function
//! runs one experiment at `scale` and writes the report to `out`.

use crate::experiment::{self, default_dnsbl, CombinedWorkload, Fig10Point, Scale};
use crate::{banner, thin_cdf};
use rand::Rng;
use spamaware_dnsbl::{width_analysis, CacheScheme, CachingResolver};
use spamaware_mfs::{DiskProfile, Layout, MfsStore};
use spamaware_server::{run, ClientModel, ServerConfig, SimStore, TrustPoint};
use spamaware_sim::{det_rng, Nanos};
use spamaware_trace::{bounce_sweep_trace, MailSizeModel, RcptCountModel, SinkholeConfig};
use std::io::{self, Write};

/// Regenerates Table 1: trace statistics vs the paper's measured values.
pub(crate) fn table1(out: &mut dyn Write, scale: Scale) -> io::Result<()> {
    banner(out, "Table 1", "measurement traces", scale)?;
    let t = experiment::table1(scale);
    let f = 1.0 / scale.trace;
    writeln!(out, "Spam trace (sinkhole, May-June 2007):")?;
    writeln!(out, "  {:<28} {:>12} {:>14}", "", "generated", "paper")?;
    writeln!(
        out,
        "  {:<28} {:>12} {:>14}",
        "connections", t.sinkhole.connections, 101_692
    )?;
    writeln!(
        out,
        "  {:<28} {:>12} {:>14}",
        "unique IP addresses", t.sinkhole.unique_ips, 19_492
    )?;
    writeln!(
        out,
        "  {:<28} {:>12} {:>14}",
        "unique /24 prefixes", t.sinkhole.unique_prefixes, 8_832
    )?;
    writeln!(
        out,
        "  {:<28} {:>12.2} {:>14}",
        "mean recipients per mail", t.sinkhole.mean_rcpts, "~7"
    )?;
    writeln!(out)?;
    writeln!(out, "Univ trace (department server, Nov 2007):")?;
    writeln!(
        out,
        "  {:<28} {:>12} {:>14}",
        "connections", t.univ.connections, 1_862_349
    )?;
    writeln!(
        out,
        "  {:<28} {:>12} {:>14}",
        "unique IP addresses", t.univ.unique_ips, 621_124
    )?;
    writeln!(
        out,
        "  {:<28} {:>12} {:>14}",
        "unique /24 prefixes", t.univ.unique_prefixes, 344_679
    )?;
    writeln!(
        out,
        "  {:<28} {:>11.0}% {:>14}",
        "spam ratio",
        t.univ.spam_ratio * 100.0,
        "67%"
    )?;
    if scale.trace < 1.0 {
        writeln!(out)?;
        writeln!(
            out,
            "note: generated counts are at 1/{f:.0} scale; ratios are scale-free."
        )?;
    }
    Ok(())
}

/// Fig. 1: distribution of mail servers in use (static survey data from
/// Simpson & Bekman's January 2007 fingerprinting of 400,000 domains,
/// as read from the paper's figure).
pub(crate) fn fig01(out: &mut dyn Write, _scale: Scale) -> io::Result<()> {
    writeln!(
        out,
        "=== Fig. 1: mail server distribution (Jan 2007 survey, 400k domains)"
    )?;
    writeln!(out)?;
    let rows = [
        ("Sendmail", 12.3),
        ("Postfix", 8.6),
        ("MS Exchange", 5.3),
        ("Postini", 5.2),
        ("Exim", 4.4),
        ("MXLogic", 3.4),
        ("Logic changing", 3.2),
        ("Qmail", 2.5),
        ("Exim (hosted)", 2.1),
        ("CommuniGate", 1.4),
        ("Cisco", 1.2),
        ("Barracuda", 1.1),
    ];
    writeln!(
        out,
        "  {:<18} {:>6}   (% of fingerprinted domains)",
        "server", "%"
    )?;
    for (name, pct) in rows {
        let bar = "#".repeat((pct * 3.0) as usize);
        writeln!(out, "  {name:<18} {pct:>5.1}%  {bar}")?;
    }
    writeln!(out)?;
    writeln!(
        out,
        "(static data; the paper uses it to motivate postfix as the study's MTA)"
    )
}

/// Fig. 3: daily bounce ratio and unfinished-SMTP ratio at the ECN mail
/// server over ~13 months.
pub(crate) fn fig03(out: &mut dyn Write, _scale: Scale) -> io::Result<()> {
    writeln!(
        out,
        "=== Fig. 3: ECN daily bounce and unfinished-SMTP ratios (395 days)"
    )?;
    writeln!(out)?;
    let series = experiment::fig03();
    writeln!(out, "  day   bounce  unfinished")?;
    for d in series.days.iter().step_by(14) {
        writeln!(
            out,
            "  {:>3}   {:>5.1}%   {:>6.1}%",
            d.day,
            d.bounce_ratio * 100.0,
            d.unfinished_ratio * 100.0
        )?;
    }
    writeln!(out)?;
    writeln!(
        out,
        "  means: bounce {:.1}% (paper: 20-25%, rising), unfinished {:.1}% (paper: 5-15%)",
        series.mean_bounce() * 100.0,
        series.mean_unfinished() * 100.0
    )?;
    writeln!(
        out,
        "  combined bounce connections: {:.1}% (paper: 25-45%)",
        series.mean_bounce_connections() * 100.0
    )
}

/// Fig. 4: CDF of the number of recipients per mail in the sinkhole trace.
pub(crate) fn fig04(out: &mut dyn Write, scale: Scale) -> io::Result<()> {
    banner(
        out,
        "Fig. 4",
        "CDF of recipients per connection (sinkhole)",
        scale,
    )?;
    let cdf = experiment::fig04(scale);
    writeln!(out, "  rcpts   CDF")?;
    for (r, f) in &cdf {
        writeln!(out, "  {r:>5}   {:>5.3}", f)?;
    }
    let at4 = cdf.iter().find(|(r, _)| *r == 4).map_or(0.0, |(_, f)| *f);
    let at15 = cdf.iter().find(|(r, _)| *r == 15).map_or(1.0, |(_, f)| *f);
    writeln!(out)?;
    writeln!(
        out,
        "  mass in 5..=15 recipients: {:.0}% (paper: \"commonly between 5-15\")",
        (at15 - at4) * 100.0
    )
}

/// Fig. 5: CDF of time to query six DNSBL servers for the sinkhole's
/// spammer IPs.
pub(crate) fn fig05(out: &mut dyn Write, scale: Scale) -> io::Result<()> {
    banner(
        out,
        "Fig. 5",
        "DNSBL query latency CDFs (six servers)",
        scale,
    )?;
    const MS_100: u64 = Nanos::from_millis(100).as_nanos();
    let rows = experiment::fig05(scale);
    for (name, hist) in &rows {
        writeln!(out, "  {name}:")?;
        for (ns, f) in thin_cdf(&hist.cdf(), 8) {
            let ms = Nanos::from_nanos(ns).as_millis_f64();
            writeln!(out, "    {:>8.1} ms   {:>5.3}", ms, f)?;
        }
        writeln!(
            out,
            "    fraction > 100 ms: {:.0}%",
            hist.fraction_above(MS_100) * 100.0
        )?;
        writeln!(out)?;
    }
    let fracs: Vec<f64> = rows.iter().map(|(_, h)| h.fraction_above(MS_100)).collect();
    let min = fracs.iter().cloned().fold(f64::MAX, f64::min);
    let max = fracs.iter().cloned().fold(0.0f64, f64::max);
    writeln!(
        out,
        "  range of >100ms fractions: {:.0}%-{:.0}% (paper: 16%-50%)",
        min * 100.0,
        max * 100.0
    )
}

/// Fig. 8: goodput vs bounce ratio for the vanilla and fork-after-trust
/// architectures.
pub(crate) fn fig08(out: &mut dyn Write, scale: Scale) -> io::Result<()> {
    banner(
        out,
        "Fig. 8",
        "goodput vs bounce ratio (Vanilla vs Hybrid)",
        scale,
    )?;
    let ratios = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0];
    writeln!(
        out,
        "  bounce   Vanilla     Hybrid      ctx-switch ratio (V/H)"
    )?;
    let points = experiment::fig08(scale, &ratios);
    for p in &points {
        let ctx_ratio = if p.hybrid.context_switches > 0 {
            p.vanilla.context_switches as f64 / p.hybrid.context_switches as f64
        } else {
            f64::INFINITY
        };
        writeln!(
            out,
            "  {:>5.2}   {:>7.1}/s   {:>7.1}/s      {:>6.2}x",
            p.bounce_ratio,
            p.vanilla.goodput(),
            p.hybrid.goodput(),
            ctx_ratio
        )?;
    }
    writeln!(out)?;
    writeln!(
        out,
        "  paper: vanilla declines steadily from ~180 mails/s; hybrid stays"
    )?;
    writeln!(
        out,
        "  almost constant until bounce ratio 0.9; context switches cut ~2x."
    )
}

/// The table Figs. 10 and 11 share: mail-write throughput of the four
/// storage layouts against recipients per mail, on one disk profile.
fn storage_layouts(
    out: &mut dyn Write,
    scale: Scale,
    id: &str,
    caption: &str,
    profile: DiskProfile,
) -> io::Result<Vec<Fig10Point>> {
    banner(out, id, caption, scale)?;
    let rcpts = [1u8, 2, 3, 5, 8, 10, 12, 15];
    let points = experiment::fig10_11(scale, profile, &rcpts);
    writeln!(out, "  rcpts      MFS    Postfix    maildir   hard-link")?;
    for p in &points {
        write!(out, "  {:>5}", p.rcpts)?;
        for (_, tput) in &p.throughput {
            write!(out, "   {tput:>7.0}")?;
        }
        writeln!(out)?;
    }
    writeln!(out)?;
    Ok(points)
}

fn throughput(p: &Fig10Point, l: Layout) -> f64 {
    p.throughput
        .iter()
        .find(|(x, _)| *x == l)
        .expect("layout")
        .1
}

/// Fig. 10: mail-write throughput of four storage layouts on Ext3.
pub(crate) fn fig10(out: &mut dyn Write, scale: Scale) -> io::Result<()> {
    let points = storage_layouts(
        out,
        scale,
        "Fig. 10",
        "mails written/sec vs recipients (Ext3-journal)",
        DiskProfile::ext3(),
    )?;
    let first = &points[0];
    let last = points.last().expect("points");
    writeln!(
        out,
        "  vanilla 1->15 amortization: {:.1}x (paper: 7.2x)",
        throughput(last, Layout::Mbox) / throughput(first, Layout::Mbox)
    )?;
    writeln!(
        out,
        "  MFS over vanilla at 15 rcpts: {:+.0}% (paper: +39%)",
        (throughput(last, Layout::Mfs) / throughput(last, Layout::Mbox) - 1.0) * 100.0
    )
}

/// Fig. 11: mail-write throughput of four storage layouts on ReiserFS.
pub(crate) fn fig11(out: &mut dyn Write, scale: Scale) -> io::Result<()> {
    let points = storage_layouts(
        out,
        scale,
        "Fig. 11",
        "mails written/sec vs recipients (ReiserFS)",
        DiskProfile::reiser(),
    )?;
    let last = points.last().expect("points");
    let mfs_over = |l: Layout| (throughput(last, Layout::Mfs) / throughput(last, l) - 1.0) * 100.0;
    writeln!(
        out,
        "  at 15 rcpts, MFS outperforms hard-link by {:+.1}%, vanilla by {:+.1}%, maildir by {:+.0}%",
        mfs_over(Layout::Hardlink),
        mfs_over(Layout::Mbox),
        mfs_over(Layout::Maildir)
    )?;
    writeln!(out, "  (paper: +29.5%, +31%, +212%)")
}

/// Fig. 12: CDF of the number of blacklisted IPs per /24 prefix.
pub(crate) fn fig12(out: &mut dyn Write, scale: Scale) -> io::Result<()> {
    banner(
        out,
        "Fig. 12",
        "CDF of blacklisted IPs in a /24 prefix",
        scale,
    )?;
    let cdf = experiment::fig12(scale);
    writeln!(out, "  listed IPs   CDF")?;
    for target in [1u32, 2, 5, 10, 20, 50, 100, 150, 200, 254] {
        if let Some((x, f)) = cdf.iter().find(|(x, _)| *x >= target) {
            writeln!(out, "  {x:>10}   {f:>5.3}")?;
        }
    }
    let at10 = cdf.iter().find(|(x, _)| *x == 10).map_or(1.0, |(_, f)| *f);
    let at100 = cdf.iter().find(|(x, _)| *x == 100).map_or(1.0, |(_, f)| *f);
    writeln!(out)?;
    writeln!(
        out,
        "  P(>10 listed) = {:.0}% (paper: ~40%), P(>100 listed) = {:.1}% (paper: ~3%)",
        (1.0 - at10) * 100.0,
        (1.0 - at100) * 100.0
    )
}

/// Fig. 13: interarrival times of spam from the same IP vs the same /24.
pub(crate) fn fig13(out: &mut dyn Write, scale: Scale) -> io::Result<()> {
    banner(
        out,
        "Fig. 13",
        "interarrival-time CDFs: per-IP vs per-/24",
        scale,
    )?;
    let (ip, prefix) = experiment::fig13(scale);
    writeln!(out, "  per-IP interarrivals (seconds):")?;
    for (ns, f) in thin_cdf(&ip.cdf(), 10) {
        let s = Nanos::from_nanos(ns).as_secs_f64();
        writeln!(out, "    {:>10.0} s   {:>5.3}", s, f)?;
    }
    writeln!(out, "  per-/24 interarrivals (seconds):")?;
    for (ns, f) in thin_cdf(&prefix.cdf(), 10) {
        let s = Nanos::from_nanos(ns).as_secs_f64();
        writeln!(out, "    {:>10.0} s   {:>5.3}", s, f)?;
    }
    writeln!(out)?;
    writeln!(
        out,
        "  medians: per-IP {:.0} s vs per-/24 {:.0} s — prefix-level arrivals are",
        Nanos::from_nanos(ip.quantile(50)).as_secs_f64(),
        Nanos::from_nanos(prefix.quantile(50)).as_secs_f64()
    )?;
    writeln!(
        out,
        "  denser, which is what prefix-level caching exploits (paper Fig. 13)."
    )
}

/// Fig. 14: throughput vs offered connection rate under per-IP and
/// prefix-based DNSBL caching.
pub(crate) fn fig14(out: &mut dyn Write, scale: Scale) -> io::Result<()> {
    banner(
        out,
        "Fig. 14",
        "throughput vs connection rate (DNSBL schemes)",
        scale,
    )?;
    let rates = [40.0, 60.0, 80.0, 100.0, 120.0, 140.0, 160.0, 180.0, 200.0];
    writeln!(out, "  offered   IP-caching   prefix-caching     gap")?;
    let points = experiment::fig14(scale, &rates);
    for p in &points {
        let ip = p.ip_caching.connection_throughput();
        let pr = p.prefix_caching.connection_throughput();
        writeln!(
            out,
            "  {:>6.0}/s   {:>8.1}/s   {:>12.1}/s   {:>+5.1}%",
            p.offered_rate,
            ip,
            pr,
            (pr / ip - 1.0) * 100.0
        )?;
    }
    writeln!(out)?;
    writeln!(
        out,
        "  paper: schemes equal at low rates, gap opens near saturation,"
    )?;
    writeln!(
        out,
        "  prefix-based achieves +10.8% at 200 connections/sec."
    )
}

/// Fig. 15: CDF of DNSBL lookup time under no / per-IP / prefix caching,
/// with the cache-hit and query-fraction numbers of §7.2.
pub(crate) fn fig15(out: &mut dyn Write, scale: Scale) -> io::Result<()> {
    banner(
        out,
        "Fig. 15",
        "DNSBL lookup-time CDFs and cache statistics",
        scale,
    )?;
    let f = experiment::fig15(scale);
    for (scheme, hist, hit, qfrac) in &f.rows {
        writeln!(out, "  {scheme:?}:")?;
        for (ns, frac) in thin_cdf(&hist.cdf(), 8) {
            let ms = Nanos::from_nanos(ns).as_millis_f64();
            writeln!(out, "    {:>8.2} ms   {:>5.3}", ms, frac)?;
        }
        writeln!(
            out,
            "    hit ratio {:>5.1}%, queries issued for {:>5.2}% of lookups",
            hit * 100.0,
            qfrac * 100.0
        )?;
        writeln!(out)?;
    }
    let ip = f
        .rows
        .iter()
        .find(|r| matches!(r.0, CacheScheme::PerIp))
        .expect("row");
    let pr = f
        .rows
        .iter()
        .find(|r| matches!(r.0, CacheScheme::PerPrefix))
        .expect("row");
    writeln!(
        out,
        "  paper: hit ratios 73.8% -> 83.9%; queries 26.22% -> 16.11% (-39%)."
    )?;
    writeln!(
        out,
        "  here:  hit ratios {:.1}% -> {:.1}%; queries {:.2}% -> {:.2}% ({:+.0}%).",
        ip.2 * 100.0,
        pr.2 * 100.0,
        ip.3 * 100.0,
        pr.3 * 100.0,
        (pr.3 / ip.3 - 1.0) * 100.0
    )
}

/// §6.3's closing measurement: MFS vs vanilla postfix mail throughput
/// under the sinkhole trace (average ~7 recipients per connection).
pub(crate) fn mfs_sinkhole(out: &mut dyn Write, scale: Scale) -> io::Result<()> {
    banner(
        out,
        "§6.3",
        "MFS vs vanilla under the sinkhole trace",
        scale,
    )?;
    let (vanilla, mfs) = experiment::mfs_sinkhole(scale);
    writeln!(
        out,
        "  vanilla postfix: {:>7.1} mails/s ({:.1} deliveries/s)",
        vanilla.goodput(),
        vanilla.delivery_throughput()
    )?;
    writeln!(
        out,
        "  MFS postfix:     {:>7.1} mails/s ({:.1} deliveries/s)",
        mfs.goodput(),
        mfs.delivery_throughput()
    )?;
    writeln!(out)?;
    writeln!(
        out,
        "  MFS gain: {:+.1}% (paper: ~+20% at ~7 recipients/connection)",
        (mfs.goodput() / vanilla.goodput() - 1.0) * 100.0
    )
}

/// §8: all three optimizations combined, on the spam and Univ workloads.
pub(crate) fn combined(out: &mut dyn Write, scale: Scale) -> io::Result<()> {
    banner(out, "§8", "combined performance improvement", scale)?;
    for (wl, name, paper_gain, paper_dns) in [
        (
            CombinedWorkload::Spam,
            "spam trace + ECN bounce ratio",
            40.0,
            39.0,
        ),
        (CombinedWorkload::Univ, "Univ trace", 18.0, 20.0),
    ] {
        let r = experiment::combined(scale, wl);
        writeln!(out, "  workload: {name}")?;
        writeln!(
            out,
            "    vanilla postfix:    {:>7.1} mails/s   ({} DNSBL queries)",
            r.vanilla.goodput(),
            r.vanilla.dns.as_ref().map_or(0, |d| d.queries_issued)
        )?;
        writeln!(
            out,
            "    spam-aware server:  {:>7.1} mails/s   ({} DNSBL queries)",
            r.spamaware.goodput(),
            r.spamaware.dns.as_ref().map_or(0, |d| d.queries_issued)
        )?;
        writeln!(out,
            "    throughput gain {:+.1}% (paper: +{paper_gain:.0}%), DNSBL queries cut {:.1}% (paper: -{paper_dns:.0}%)",
            r.throughput_gain() * 100.0,
            r.dns_query_reduction() * 100.0
        )?;
        writeln!(out)?;
    }
    Ok(())
}

/// §10 generality check: the paper claims its optimizations "are general
/// and applicable to other popular mail servers such as qmail". This
/// bench runs the Fig. 8 bounce sweep against a qmail-like
/// process-per-connection baseline (fresh process per connection, no
/// recycling) and the same fork-after-trust hybrid.
pub(crate) fn generality_qmail(out: &mut dyn Write, scale: Scale) -> io::Result<()> {
    banner(
        out,
        "§10",
        "generality: qmail-like baseline vs fork-after-trust",
        scale,
    )?;
    writeln!(
        out,
        "  bounce   qmail-like   postfix-like   Hybrid     hybrid gain over qmail"
    )?;
    for b in [0.0, 0.3, 0.6, 0.9] {
        let trace = bounce_sweep_trace(42, 10_000, b, 400);
        let client = ClientModel::Closed { concurrency: 600 };
        let horizon = Nanos::from_secs(scale.seconds);
        let qmail = run(&trace, ServerConfig::qmail_like(), client, horizon);
        let postfix = run(&trace, ServerConfig::vanilla(), client, horizon);
        let hybrid = run(&trace, ServerConfig::hybrid(), client, horizon);
        writeln!(
            out,
            "  {b:>5.2}   {:>8.1}/s   {:>10.1}/s   {:>7.1}/s   {:>+6.0}%",
            qmail.goodput(),
            postfix.goodput(),
            hybrid.goodput(),
            (hybrid.goodput() / qmail.goodput().max(1e-9) - 1.0) * 100.0
        )?;
    }
    writeln!(out)?;
    writeln!(
        out,
        "  qmail's per-connection fork (no recycling) makes bounces even"
    )?;
    writeln!(
        out,
        "  dearer, so fork-after-trust helps it more than postfix (§10)."
    )
}

/// Ablation: vector-send task batching in the hybrid master.
///
/// The paper batches ~28 delegated tasks per worker socket (64 KiB buffer,
/// §5.3). This sweep shrinks the per-worker queue to show the natural
/// throttle turning into a bottleneck.
pub(crate) fn ablation_batching(out: &mut dyn Write, scale: Scale) -> io::Result<()> {
    banner(
        out,
        "ablation",
        "worker task-queue depth (vector-send batching)",
        scale,
    )?;
    let trace = bounce_sweep_trace(42, 10_000, 0.2, 400);
    writeln!(out, "  queue depth   goodput     max note")?;
    for (depth, workers) in [(1usize, 4usize), (4, 4), (28, 4), (1, 64), (28, 64)] {
        let cfg = ServerConfig {
            worker_queue_limit: depth,
            process_limit: workers,
            ..ServerConfig::hybrid()
        };
        let rep = run(
            &trace,
            cfg,
            ClientModel::Closed { concurrency: 600 },
            Nanos::from_secs(scale.seconds),
        );
        writeln!(
            out,
            "  {depth:>6} x{workers:<3}   {:>7.1}/s   {}",
            rep.goodput(),
            if depth == 28 {
                "(paper's 64 KiB estimate)"
            } else {
                ""
            }
        )?;
    }
    writeln!(out)?;
    writeln!(
        out,
        "  deep queues let the master keep delegating while workers drain"
    )?;
    writeln!(
        out,
        "  RTT-bound connections; depth 1 with few workers serializes."
    )
}

/// Ablation: bounded resolver-cache capacity. The paper assumes an
/// unbounded 24 h cache; this sweep shows how small the cache can get
/// before the prefix scheme's advantage erodes — and that prefix caching
/// *needs fewer entries* for the same hit ratio (one /25 bitmap covers up
/// to 128 bots).
pub(crate) fn ablation_cache_size(out: &mut dyn Write, scale: Scale) -> io::Result<()> {
    banner(out, "ablation", "resolver cache capacity", scale)?;
    let sink = SinkholeConfig::scaled(scale.trace.max(0.25)).generate();
    let server = default_dnsbl(sink.blacklisted.iter().copied());
    let ttl = Nanos::from_secs(86_400);
    writeln!(
        out,
        "  capacity     per-IP hit (evictions)    per-/25 hit (evictions)"
    )?;
    for cap in [100usize, 500, 2_000, 10_000, usize::MAX] {
        let label = if cap == usize::MAX {
            "unbounded".to_owned()
        } else {
            cap.to_string()
        };
        let mut cells = Vec::new();
        for scheme in [CacheScheme::PerIp, CacheScheme::PerPrefix] {
            let mut r = CachingResolver::new(scheme, ttl);
            if cap != usize::MAX {
                r = r.with_capacity(cap);
            }
            let mut rng = det_rng(4);
            for c in &sink.trace.connections {
                r.lookup(c.client_ip, c.arrival, &server, &mut rng);
            }
            cells.push((r.stats().hit_ratio(), r.stats().evictions));
        }
        writeln!(
            out,
            "  {label:>9}   {:>9.1}%  ({:>8})   {:>10.1}%  ({:>8})",
            cells[0].0 * 100.0,
            cells[0].1,
            cells[1].0 * 100.0,
            cells[1].1
        )?;
    }
    writeln!(out)?;
    writeln!(
        out,
        "  the bitmap cache tolerates much smaller capacities: one entry"
    )?;
    writeln!(
        out,
        "  covers a whole /25 of bots (paper's unbounded setting at the"
    )?;
    writeln!(out, "  bottom row).")
}

/// Ablation: MFS share threshold — share only multi-recipient mails (the
/// paper's design) vs routing single-recipient mail through the shared
/// mailbox too.
pub(crate) fn ablation_mfs_threshold(out: &mut dyn Write, scale: Scale) -> io::Result<()> {
    banner(
        out,
        "ablation",
        "MFS share threshold (sinkhole-like mail stream)",
        scale,
    )?;
    let mut rng = det_rng(77);
    let sizes = MailSizeModel::spam();
    let rcpts = RcptCountModel::spam();
    let boxes: Vec<String> = (0..500).map(|i| format!("user{i}")).collect();
    // 20,000 mails at the recorded scale. The count follows the scale
    // because a debug build re-checks the store's refcounts on every
    // delivery, which is quadratic in it.
    let count = (80_000.0 * scale.trace) as usize;
    let mails: Vec<(Vec<usize>, u32)> = (0..count)
        .map(|_| {
            let n = rcpts.sample(&mut rng) as usize;
            let mut chosen: Vec<usize> = (0..n).map(|_| rng.gen_range(0..boxes.len())).collect();
            chosen.sort_unstable();
            chosen.dedup();
            (chosen, sizes.sample(&mut rng))
        })
        .collect();

    writeln!(out, "  threshold   disk time    appends    vs paper design")?;
    let mut baseline = None;
    for threshold in [1usize, 2, 4, 8] {
        let mut store = SimStore::with_store(DiskProfile::ext3(), |disk| {
            Box::new(MfsStore::new(disk).with_share_threshold(threshold))
        });
        let refs: Vec<&str> = boxes.iter().map(String::as_str).collect();
        store.prewarm(&refs).expect("prewarm");
        let mut total = Nanos::ZERO;
        for (chosen, size) in &mails {
            let names: Vec<&str> = chosen.iter().map(|&i| boxes[i].as_str()).collect();
            total += store.deliver(&names, *size as u64).expect("deliver");
        }
        let base = *baseline.get_or_insert(total);
        writeln!(
            out,
            "  {threshold:>9}   {:>9}   {:>8}   {:>+6.1}%",
            format!("{total}"),
            store.op_counts().appends,
            (total.as_secs_f64() / base.as_secs_f64() - 1.0) * 100.0
        )?;
    }
    writeln!(out)?;
    writeln!(
        out,
        "  threshold 2 (the paper's design) avoids the extra key tuple per"
    )?;
    writeln!(
        out,
        "  single-recipient mail; higher thresholds duplicate bodies again."
    )
}

/// Ablation: DNSBL bitmap prefix width. /25 is what one IPv6 AAAA answer
/// can carry (128 bits); this sweep shows what /24 or /26 bitmaps would
/// buy or cost on the sinkhole workload.
pub(crate) fn ablation_prefix_width(out: &mut dyn Write, scale: Scale) -> io::Result<()> {
    banner(out, "ablation", "DNSBL cache prefix width", scale)?;
    let sink = SinkholeConfig::scaled(scale.trace.max(0.25)).generate();
    let events: Vec<_> = sink
        .trace
        .connections
        .iter()
        .map(|c| (c.arrival, c.client_ip))
        .collect();
    let ttl = Nanos::from_secs(86_400);
    writeln!(
        out,
        "  width    bitmap bits   hit ratio   queries (% of lookups)"
    )?;
    for width in [22u8, 23, 24, 25, 26, 28, 32] {
        let a = width_analysis(&events, width, ttl);
        let bits = 1u64 << (32 - width as u32);
        writeln!(
            out,
            "  /{width:<5} {:>11}   {:>8.1}%   {:>8.2}%{}",
            bits,
            a.hit_ratio() * 100.0,
            a.queries as f64 / a.lookups as f64 * 100.0,
            match width {
                25 => "   <- one AAAA answer (the paper's DNSBLv6)",
                32 => "   <- classic per-IP caching",
                _ => "",
            }
        )?;
    }
    writeln!(out)?;
    writeln!(
        out,
        "  wider bitmaps keep helping, but /25 is the widest that fits in a"
    )?;
    writeln!(out, "  single unmodified-DNS answer (paper §7.1).")
}

/// Ablation: where should the hybrid master place the trust point?
///
/// Sweeps delegation at accept / after HELO / after the first valid RCPT
/// (the paper's design) across bounce ratios. Delegating earlier wastes
/// worker setup on connections that turn out to be bounces; the
/// after-valid-RCPT point is the only one whose bounce cost stays on the
/// cheap event-loop path.
pub(crate) fn ablation_trust_point(out: &mut dyn Write, scale: Scale) -> io::Result<()> {
    banner(
        out,
        "ablation",
        "trust-point placement vs bounce ratio",
        scale,
    )?;
    writeln!(
        out,
        "  bounce   AfterAccept   AfterHelo   AfterValidRcpt   (goodput, mails/s)"
    )?;
    for b in [0.0, 0.3, 0.6, 0.9] {
        let trace = bounce_sweep_trace(42, 10_000, b, 400);
        write!(out, "  {b:>5.2}")?;
        for tp in [
            TrustPoint::AfterAccept,
            TrustPoint::AfterHelo,
            TrustPoint::AfterValidRcpt,
        ] {
            let cfg = ServerConfig {
                trust_point: tp,
                ..ServerConfig::hybrid()
            };
            let rep = run(
                &trace,
                cfg,
                ClientModel::Closed { concurrency: 600 },
                Nanos::from_secs(scale.seconds),
            );
            write!(out, "   {:>11.1}", rep.goodput())?;
        }
        writeln!(out)?;
    }
    writeln!(out)?;
    writeln!(
        out,
        "  the later the trust point, the less worker setup is wasted on"
    )?;
    writeln!(out, "  bounce connections (paper §5.1).")
}

/// Ablation: DNSBL cache TTL sensitivity. The paper uses 24 h because
/// "these lists are updated rather infrequently" (§7.2); this sweep shows
/// the hit-ratio cost of shorter TTLs and the diminishing returns beyond
/// a day.
pub(crate) fn ablation_ttl(out: &mut dyn Write, scale: Scale) -> io::Result<()> {
    banner(out, "ablation", "DNSBL cache TTL sensitivity", scale)?;
    let sink = SinkholeConfig::scaled(scale.trace.max(0.25)).generate();
    let server = default_dnsbl(sink.blacklisted.iter().copied());
    writeln!(
        out,
        "  TTL        per-IP hit   per-/25 hit   prefix advantage"
    )?;
    for (label, secs) in [
        ("15 min", 900u64),
        ("1 hour", 3_600),
        ("6 hours", 21_600),
        ("24 hours", 86_400),
        ("7 days", 604_800),
    ] {
        let mut row = Vec::new();
        for scheme in [CacheScheme::PerIp, CacheScheme::PerPrefix] {
            let mut r = CachingResolver::new(scheme, Nanos::from_secs(secs));
            let mut rng = det_rng(3);
            for c in &sink.trace.connections {
                r.lookup(c.client_ip, c.arrival, &server, &mut rng);
            }
            row.push(r.stats().hit_ratio());
        }
        writeln!(
            out,
            "  {label:<9}  {:>8.1}%   {:>9.1}%   {:>+8.1} pp{}",
            row[0] * 100.0,
            row[1] * 100.0,
            (row[1] - row[0]) * 100.0,
            if secs == 86_400 {
                "   <- paper's setting"
            } else {
                ""
            }
        )?;
    }
    Ok(())
}
