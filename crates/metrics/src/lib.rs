#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)] // DESIGN.md §9
#![deny(clippy::unreachable, clippy::iter_over_hash_type)]
//! `spamaware-metrics` — dependency-free observability for the mail
//! server.
//!
//! The paper's argument (§4–§7) is quantitative: it rests on knowing where
//! a spam-dominated workload spends its time, stage by stage. This crate
//! is the measurement layer that the live server, the MFS store, and the
//! DNSBL resolver all report into:
//!
//! * [`Counter`] / [`Gauge`] — lock-free event counts and levels;
//! * [`LogHistogram`] — fixed-bucket log-linear histograms (16 buckets
//!   per power of two) with p50/p95/p99 — the workspace's one distribution
//!   type: [`quantile_of`] is the only rank-to-value walk, here and under
//!   the simulator's read-outs;
//! * [`SpanHandle`] / [`SpanGuard`] — scoped timers over an injectable
//!   [`Clock`], so the live server measures wall time while simulations
//!   and tests inject a [`ManualClock`] and stay byte-deterministic;
//! * [`Registry`] — a named collection of the above with a canonical,
//!   deterministic text rendering ([`Registry::render`]) served by the
//!   live server's `METRICS` admin command;
//! * [`lock`] — the one way the workspace takes a `std::sync::Mutex`,
//!   recovering it from a panicked holder.
//!
//! # Example
//!
//! ```
//! use spamaware_metrics::{ManualClock, Registry};
//! use std::sync::Arc;
//!
//! let clock = ManualClock::new();
//! let registry = Registry::new(Arc::new(clock.clone()));
//! let accepted = registry.counter("live.accepted");
//! let lookups = registry.span("dnsbl.lookup_ns");
//!
//! accepted.inc();
//! let span = lookups.start();
//! clock.advance(42_000);
//! drop(span);
//!
//! let report = registry.render();
//! assert!(report.contains("counter live.accepted 1"));
//! assert!(report.contains("histogram dnsbl.lookup_ns count=1"));
//! ```

mod clock;
mod instruments;
mod span;

pub use clock::{Clock, ManualClock, WallClock};
pub use instruments::{quantile_of, Counter, Gauge, LogHistogram, BUCKETS};
pub use span::{SpanGuard, SpanHandle};

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Locks `mutex`, recovering it if a holder panicked: the workspace's
/// shared state (a registry map, a free list, a store partition) stays
/// usable after a panic elsewhere, so every lock is taken this one way.
pub fn lock<T: ?Sized>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

#[derive(Debug, Clone)]
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<LogHistogram>),
}

/// A named collection of instruments sharing one injected [`Clock`].
///
/// Instruments are registered on first use (`counter`/`gauge`/`histogram`
/// are get-or-create) and held by `Arc`, so hot paths resolve a handle
/// once and never touch the registry lock again. Rendering walks the
/// names in sorted order, making the report a deterministic function of
/// the recorded values.
#[derive(Debug)]
pub struct Registry {
    clock: Arc<dyn Clock>,
    metrics: Mutex<BTreeMap<String, Metric>>,
}

impl Registry {
    /// Creates a registry over an injected clock.
    pub fn new(clock: Arc<dyn Clock>) -> Registry {
        Registry {
            clock,
            metrics: Mutex::new(BTreeMap::new()),
        }
    }

    /// Creates a registry over real elapsed time (the live server's
    /// default).
    pub fn with_wall_clock() -> Registry {
        Registry::new(Arc::new(WallClock::new()))
    }

    /// The injected clock.
    pub fn clock(&self) -> Arc<dyn Clock> {
        Arc::clone(&self.clock)
    }

    /// The clock's current nanosecond reading.
    pub fn now_nanos(&self) -> u64 {
        self.clock.now_nanos()
    }

    /// Gets or creates the named counter.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut map = lock(&self.metrics);
        match map
            .entry(name.to_owned())
            .or_insert_with(|| Metric::Counter(Arc::new(Counter::new())))
        {
            Metric::Counter(c) => Arc::clone(c),
            _ => {
                debug_assert!(false, "metric {name} registered with another kind");
                Arc::new(Counter::new())
            }
        }
    }

    /// Gets or creates the named gauge.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut map = lock(&self.metrics);
        match map
            .entry(name.to_owned())
            .or_insert_with(|| Metric::Gauge(Arc::new(Gauge::new())))
        {
            Metric::Gauge(g) => Arc::clone(g),
            _ => {
                debug_assert!(false, "metric {name} registered with another kind");
                Arc::new(Gauge::new())
            }
        }
    }

    /// Gets or creates the named histogram.
    pub fn histogram(&self, name: &str) -> Arc<LogHistogram> {
        let mut map = lock(&self.metrics);
        match map
            .entry(name.to_owned())
            .or_insert_with(|| Metric::Histogram(Arc::new(LogHistogram::new())))
        {
            Metric::Histogram(h) => Arc::clone(h),
            _ => {
                debug_assert!(false, "metric {name} registered with another kind");
                Arc::new(LogHistogram::new())
            }
        }
    }

    /// Gets or creates the named histogram bound to this registry's clock
    /// as a span timer.
    pub fn span(&self, name: &str) -> SpanHandle {
        SpanHandle::new(Arc::clone(&self.clock), self.histogram(name))
    }

    /// Reads a counter's value, if registered.
    pub fn counter_value(&self, name: &str) -> Option<u64> {
        match lock(&self.metrics).get(name) {
            Some(Metric::Counter(c)) => Some(c.get()),
            _ => None,
        }
    }

    /// Reads a gauge's level, if registered.
    pub fn gauge_value(&self, name: &str) -> Option<i64> {
        match lock(&self.metrics).get(name) {
            Some(Metric::Gauge(g)) => Some(g.get()),
            _ => None,
        }
    }

    /// Reads a histogram's sample count, if registered.
    pub fn histogram_count(&self, name: &str) -> Option<u64> {
        match lock(&self.metrics).get(name) {
            Some(Metric::Histogram(h)) => Some(h.count()),
            _ => None,
        }
    }

    /// Reads a histogram's maximum recorded value, if registered — the
    /// handle overload tests use to assert a latency stayed bounded
    /// (e.g. "no DNSBL check took longer than its budget").
    pub fn histogram_max(&self, name: &str) -> Option<u64> {
        match lock(&self.metrics).get(name) {
            Some(Metric::Histogram(h)) => Some(h.max()),
            _ => None,
        }
    }

    /// Renders every instrument as one line of plain text, sorted by name:
    ///
    /// ```text
    /// counter live.accepted 12
    /// gauge worker.queue_depth 0
    /// histogram mfs.write_ns count=3 sum=9300 p50=4000 p95=4000 p99=4000 max=4000
    /// ```
    ///
    /// All values are integers (nanoseconds for span histograms); given
    /// identical recorded values the output is byte-identical.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (name, metric) in lock(&self.metrics).iter() {
            match metric {
                Metric::Counter(c) => {
                    out.push_str(&format!("counter {name} {}\n", c.get()));
                }
                Metric::Gauge(g) => {
                    out.push_str(&format!("gauge {name} {}\n", g.get()));
                }
                Metric::Histogram(h) => {
                    out.push_str(&format!(
                        "histogram {name} count={} sum={} p50={} p95={} p99={} max={}\n",
                        h.count(),
                        h.sum(),
                        h.quantile(50),
                        h.quantile(95),
                        h.quantile(99),
                        h.max(),
                    ));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisoned_lock_recovers() {
        let m = Arc::new(Mutex::new(0u32));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = lock(&m2);
            panic!("poison it");
        })
        .join();
        assert!(m.is_poisoned());
        *lock(&m) += 1;
        assert_eq!(*lock(&m), 1);
    }

    #[test]
    fn get_or_create_returns_the_same_instrument() {
        let r = Registry::new(Arc::new(ManualClock::new()));
        r.counter("a").inc();
        r.counter("a").inc();
        assert_eq!(r.counter_value("a"), Some(2));
    }

    #[test]
    fn histogram_max_reads_back() {
        let r = Registry::new(Arc::new(ManualClock::new()));
        let h = r.histogram("lat_ns");
        h.record(5);
        h.record(900);
        h.record(40);
        assert_eq!(r.histogram_max("lat_ns"), Some(900));
        assert_eq!(r.histogram_max("absent"), None);
    }

    #[test]
    fn render_prints_what_its_doc_shows() {
        let r = Registry::new(Arc::new(ManualClock::new()));
        for v in [1_300, 4_000, 4_000] {
            r.histogram("mfs.write_ns").record(v);
        }
        assert_eq!(
            r.render(),
            "histogram mfs.write_ns count=3 sum=9300 p50=4000 p95=4000 p99=4000 max=4000\n"
        );
    }

    #[test]
    fn render_is_sorted_and_complete() {
        let r = Registry::new(Arc::new(ManualClock::new()));
        r.counter("z.last").add(3);
        r.gauge("m.middle").set(-1);
        r.histogram("a.first").record(7);
        let report = r.render();
        let lines: Vec<&str> = report.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("histogram a.first count=1 sum=7"));
        assert_eq!(lines[1], "gauge m.middle -1");
        assert_eq!(lines[2], "counter z.last 3");
    }

    #[test]
    fn identical_recordings_render_identically() {
        let build = || {
            let clock = ManualClock::new();
            let r = Registry::new(Arc::new(clock.clone()));
            let span = r.span("op_ns");
            for step in [10u64, 20, 40] {
                let g = span.start();
                clock.advance(step);
                drop(g);
            }
            r.counter("ops").add(3);
            r.render()
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn kind_mismatch_yields_detached_instrument_in_release() {
        let r = Registry::new(Arc::new(ManualClock::new()));
        r.counter("x").inc();
        // In release builds a kind mismatch must not clobber the original.
        if !cfg!(debug_assertions) {
            let _ = r.gauge("x");
            assert_eq!(r.counter_value("x"), Some(1));
        }
    }
}
