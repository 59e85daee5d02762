//! The three instrument kinds: counters, gauges, and log-linear histograms.
//!
//! Everything is lock-free (`AtomicU64`/`AtomicI64` with relaxed ordering)
//! so the hot paths of the live server — the master's accept loop and the
//! worker pool — never contend on a metrics mutex. Reads taken while
//! writers are active are individually atomic but not a consistent cut;
//! reports are rendered at quiescence (tests) or accepted as approximate
//! (the admin socket).

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

/// A monotonically increasing event count.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Creates a counter at zero.
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A signed instantaneous level (queue depth, live connections, …).
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Creates a gauge at zero.
    pub fn new() -> Gauge {
        Gauge::default()
    }

    /// Sets the level.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Raises the level by one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Lowers the level by one.
    pub fn dec(&self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }

    /// Moves the level by a signed delta (byte-count gauges shift by
    /// whole buffers, not single steps).
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current level.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Sub-buckets per power of two. A constant, not a parameter: every
/// histogram in the workspace shares one bucket layout, so any two can be
/// compared edge for edge and a rendered report never depends on a setting.
const SUB_BITS: u32 = 4;
const SUB_BUCKETS: usize = 1 << SUB_BITS;

/// Number of buckets: the values below 16 exactly, then 16 per power of two
/// for each of the 60 exponents `2^4 ..= 2^63` (≈ 7.6 KiB of counters).
pub const BUCKETS: usize = SUB_BUCKETS + (64 - SUB_BITS as usize) * SUB_BUCKETS;

/// The bucket holding `v` — the workspace's only sample-to-bucket map.
///
/// `shift` is how many low bits the bucket ignores: 0 below 32, then one
/// more per power of two, so `v >> shift` lands in `16..32` and names the
/// sub-bucket.
fn bucket_of(v: u64) -> usize {
    let shift = (63 - SUB_BITS - (v | SUB_BUCKETS as u64).leading_zeros()) as usize;
    shift * SUB_BUCKETS + (v >> shift) as usize
}

/// Inclusive upper edge of bucket `i`, the inverse of [`bucket_of`].
fn bucket_edge(i: usize) -> u64 {
    let shift = (i / SUB_BUCKETS).saturating_sub(1);
    let top = (i - shift * SUB_BUCKETS) as u64 + 1;
    // The last bucket's exclusive edge is 2^64: the shift drops that bit
    // and the subtraction wraps to `u64::MAX`, which is the inclusive edge.
    (top << shift).wrapping_sub(1)
}

/// The value at or below which `percent`% of the samples fall (nearest
/// rank), read off an ascending run of `(upper_edge, count)` buckets that
/// hold `total` samples between them — the workspace's only rank-to-value
/// walk, under [`LogHistogram::quantile`] and every read-out of one.
/// `percent` is clamped to `0..=100`; an empty run answers 0.
pub fn quantile_of(buckets: impl IntoIterator<Item = (u64, u64)>, total: u64, percent: u64) -> u64 {
    // Ceiling of total * percent / 100 in u128 to dodge overflow.
    let rank = (total as u128 * percent.min(100) as u128)
        .div_ceil(100)
        .max(1) as u64;
    let mut acc = 0u64;
    let mut last = 0;
    for (edge, count) in buckets {
        acc = acc.saturating_add(count);
        last = edge;
        if acc >= rank {
            break;
        }
    }
    last
}

/// A fixed-bucket log-linear histogram over `u64` samples (typically
/// nanoseconds) — the one distribution type of the workspace, under the
/// live server's spans and the simulator's figures alike.
///
/// Values below 16 have a bucket each; above that every power of two is
/// cut into 16 equal sub-buckets, so a bucket is never wider than 1/16 of
/// its lower edge. Quantiles report the inclusive upper edge of the
/// covering bucket, clamped to the largest sample: at most 1/16 above the
/// true quantile, never above [`max`](Self::max), and exactly
/// reproducible — integer arithmetic only, so identical sample multisets
/// render identical reports byte for byte on any toolchain.
///
/// # Example
///
/// ```
/// use spamaware_metrics::LogHistogram;
/// let h = LogHistogram::new();
/// for v in [100, 200, 400, 100_000] {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 4);
/// assert_eq!(h.quantile(50), 207); // 200 lands in [200, 208)
/// assert_eq!(h.quantile(100), 100_000); // the edge is 102_399; max caps it
/// ```
#[derive(Debug)]
pub struct LogHistogram {
    counts: [AtomicU64; BUCKETS],
    total: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl LogHistogram {
    /// Creates an empty histogram.
    pub fn new() -> LogHistogram {
        LogHistogram {
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
            total: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Records one sample.
    pub fn record(&self, v: u64) {
        self.counts[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.total.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.total.load(Ordering::Relaxed)
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Largest sample recorded (0 when empty).
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// The non-empty buckets in ascending order, each as `(upper_edge,
    /// count)`: `count` samples were at most `upper_edge` and above the
    /// previous pair's edge. The last edge is the largest sample, not its
    /// bucket's nominal edge, so no read-out can exceed [`max`](Self::max).
    pub fn buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        let max = self.max();
        self.counts.iter().enumerate().filter_map(move |(i, c)| {
            let count = c.load(Ordering::Relaxed);
            (count > 0).then(|| (bucket_edge(i).min(max), count))
        })
    }

    /// The value at or below which `percent`% of samples fall:
    /// [`quantile_of`] over [`buckets`](Self::buckets).
    pub fn quantile(&self, percent: u64) -> u64 {
        quantile_of(self.buckets(), self.count(), percent)
    }
}

impl Default for LogHistogram {
    fn default() -> LogHistogram {
        LogHistogram::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = Gauge::new();
        g.inc();
        g.inc();
        g.dec();
        assert_eq!(g.get(), 1);
        g.set(-3);
        assert_eq!(g.get(), -3);
    }

    #[test]
    fn buckets_cover_the_u64_range() {
        for v in 0..16 {
            assert_eq!(bucket_of(v), v as usize);
            assert_eq!(bucket_edge(v as usize), v);
        }
        assert_eq!(bucket_of(16), 16);
        assert_eq!(bucket_of(31), 31);
        assert_eq!(bucket_of(32), 32);
        assert_eq!(bucket_of(33), 32);
        assert_eq!(bucket_edge(32), 33);
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
        assert_eq!(bucket_edge(BUCKETS - 1), u64::MAX);
        // Every bucket ends where the next begins, holds its own edge, and
        // is at most 1/16 of its lower edge wide.
        let mut lower = 0u64;
        for i in 0..BUCKETS {
            let edge = bucket_edge(i);
            assert_eq!(bucket_of(lower), i, "lower edge of bucket {i}");
            assert_eq!(bucket_of(edge), i, "upper edge of bucket {i}");
            assert!(edge - lower <= lower / 16, "bucket {i}: {lower}..={edge}");
            lower = edge.wrapping_add(1);
        }
        assert_eq!(lower, 0, "the last bucket ends at u64::MAX");
    }

    #[test]
    fn quantiles_bracket_truth_within_a_bucket() {
        let h = LogHistogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let p50 = h.quantile(50);
        assert!((500..=531).contains(&p50), "p50 {p50}");
        let p99 = h.quantile(99);
        assert!((990..=1000).contains(&p99), "p99 {p99}");
        assert_eq!(h.quantile(100), 1000);
    }

    /// The parent's log2 buckets answered 4194303 three times here.
    #[test]
    fn percentiles_of_a_one_to_four_ms_spread_are_distinct_and_ordered() {
        let h = LogHistogram::new();
        for i in 0..1000u64 {
            h.record(1_000_000 + i * 3_000);
        }
        let (p50, p95, p99) = (h.quantile(50), h.quantile(95), h.quantile(99));
        assert!(
            p50 < p95 && p95 < p99 && p99 <= h.max(),
            "{p50} {p95} {p99}"
        );
    }

    #[test]
    fn concurrent_recorders_lose_nothing() {
        const THREADS: u64 = 8;
        const SAMPLES: u64 = 10_000;
        let h = LogHistogram::new();
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let h = &h;
                s.spawn(move || {
                    for i in 0..SAMPLES {
                        h.record(t * 1_000_003 + i * 37);
                    }
                });
            }
        });
        let expected_sum: u64 = (0..THREADS)
            .map(|t| t * 1_000_003 * SAMPLES + 37 * (SAMPLES * (SAMPLES - 1) / 2))
            .sum();
        assert_eq!(h.count(), THREADS * SAMPLES);
        assert_eq!(h.sum(), expected_sum);
        assert_eq!(h.buckets().map(|(_, c)| c).sum::<u64>(), h.count());
        assert_eq!(h.max(), 7 * 1_000_003 + 9_999 * 37);
    }

    #[test]
    fn zeros_land_in_the_zero_bucket() {
        let h = LogHistogram::new();
        h.record(0);
        h.record(0);
        h.record(8);
        assert_eq!(h.quantile(50), 0);
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum(), 8);
        assert_eq!(h.buckets().collect::<Vec<_>>(), [(0, 2), (8, 1)]);
    }

    #[test]
    fn empty_histogram_is_all_zeros() {
        let h = LogHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(50), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.buckets().next(), None);
    }
}
