//! Regression: a metrics report produced by a deterministic sim-driven
//! pipeline is a pure function of seed + trace — two identical runs must
//! render **byte-identical** reports. Rendering is integer-only and
//! BTreeMap-sorted, and all span timings come from a clock set to the
//! scheduler's virtual time after each event, so any nondeterminism
//! (hash-order leaks, wall-clock reads, unseeded randomness) shows up
//! here as a diff.

use spamaware_bench::experiment::default_dnsbl;
use spamaware_dnsbl::{CacheScheme, CachingResolver};
use spamaware_metrics::{ManualClock, Registry};
use spamaware_mfs::{DataRef, MailId, MailStore, MemFs, MfsStore};
use spamaware_sim::{det_rng, Nanos, Scheduler};
use spamaware_trace::SinkholeConfig;
use std::sync::Arc;

/// One full deterministic pipeline pass: replay a slice of the sinkhole
/// trace through an instrumented resolver and store mail through an
/// instrumented MFS, timing each step against scheduler virtual time.
fn run_once() -> String {
    let mut sched: Scheduler<u32> = Scheduler::new();
    let clock = ManualClock::new();
    let registry = Registry::new(Arc::new(clock.clone()));
    let sink = SinkholeConfig::scaled(0.05).generate();
    let server = default_dnsbl(sink.blacklisted.iter().copied());
    let mut resolver = CachingResolver::new(CacheScheme::PerPrefix, Nanos::from_secs(86_400))
        .with_metrics(&registry);
    let mut store = MfsStore::new(MemFs::new()).with_metrics(&registry);
    let mut rng = det_rng(42);
    let listed = registry.counter("replay.listed");
    let step = registry.span("replay.step_ns");
    for (i, c) in sink.trace.connections.iter().take(500).enumerate() {
        // Advance the virtual clock to this connection's arrival.
        sched.schedule_at(c.arrival.max(sched.now()), i as u32);
        sched.pop();
        clock.set(sched.now().as_nanos());
        let start = step.now();
        if resolver
            .lookup(c.client_ip, c.arrival, &server, &mut rng)
            .listed
        {
            listed.inc();
        }
        if i % 3 == 0 {
            store
                .deliver(
                    MailId(i as u64),
                    &["alice", "bob"],
                    DataRef::Bytes(b"deterministic multi-recipient spam body"),
                )
                .expect("deliver");
        } else if i % 5 == 0 {
            store
                .deliver(
                    MailId(10_000 + i as u64),
                    &["alice"],
                    DataRef::Bytes(b"ham"),
                )
                .expect("deliver private");
        }
        if i % 100 == 0 {
            store.read_mailbox("alice").expect("read");
        }
        if i == 400 {
            store.delete("bob", MailId(0)).expect("delete");
        }
        // A data-dependent amount of virtual work, closed out by the span.
        sched.schedule_in(Nanos::from_micros((i as u64 % 7) + 1), 0);
        sched.pop();
        clock.set(sched.now().as_nanos());
        step.record_since(start);
    }
    // The model's lookup latencies stay in the resolver's own books.
    assert_eq!(resolver.stats().latency_ns.count, 500);
    registry.render()
}

#[test]
fn metrics_report_is_byte_identical_across_identical_runs() {
    let first = run_once();
    let second = run_once();
    assert_eq!(first, second, "metrics report must be deterministic");

    // Guard against vacuous passes: the report must carry real content
    // from every instrumented layer.
    assert!(first.contains("counter dnsbl.cache_hit "), "{first}");
    assert!(first.contains("counter mfs.shared_bytes "), "{first}");
    assert!(
        first.contains("histogram replay.step_ns count=500"),
        "{first}"
    );
    assert!(
        !first.contains("count=0"),
        "every histogram should have recorded something:\n{first}"
    );
    let hits: u64 = first
        .lines()
        .find_map(|l| l.strip_prefix("counter dnsbl.cache_hit "))
        .and_then(|v| v.parse().ok())
        .expect("hit counter present");
    assert!(hits > 0, "the prefix cache should see hits:\n{first}");
}
