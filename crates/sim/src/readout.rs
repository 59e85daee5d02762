//! The serializable read-out of a [`LogHistogram`].
//!
//! The simulator records into the same integer histogram the live server
//! does (nanoseconds in, one shared bucket layout) and reports carry this
//! plain copy of it. `spamaware-metrics` stays dependency-free, so the
//! serde derive lives here; the bucket walk does not — [`Readout::quantile`]
//! is [`spamaware_metrics::quantile_of`], the walk `Registry::render` uses.
//! The benchmark harness prints the paper's CDF figures (5, 13, 15) from
//! [`Readout::cdf`].

use spamaware_metrics::{quantile_of, LogHistogram};

/// What a [`LogHistogram`] held when it was read.
///
/// # Example
///
/// ```
/// use spamaware_metrics::LogHistogram;
/// use spamaware_sim::Readout;
///
/// let h = LogHistogram::new();
/// for v in [1, 2, 2, 1_000] {
///     h.record(v);
/// }
/// let r = Readout::from(&h);
/// assert_eq!((r.count, r.sum, r.max), (4, 1_005, 1_000));
/// assert_eq!(r.buckets, [(1, 1), (2, 2), (1_000, 1)]);
/// assert_eq!(r.quantile(50), h.quantile(50));
/// assert_eq!(r.cdf(), [(1, 0.25), (2, 0.75), (1_000, 1.0)]);
/// assert_eq!(r.fraction_above(2), 0.25);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct Readout {
    /// Samples recorded.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Largest sample (0 when empty).
    pub max: u64,
    /// The non-empty buckets, ascending, as [`LogHistogram::buckets`]
    /// yields them: `(upper_edge, count)`, the last edge being `max`.
    pub buckets: Vec<(u64, u64)>,
}

impl From<&LogHistogram> for Readout {
    fn from(h: &LogHistogram) -> Readout {
        Readout {
            count: h.count(),
            sum: h.sum(),
            max: h.max(),
            buckets: h.buckets().collect(),
        }
    }
}

impl Readout {
    /// The value at or below which `percent`% of samples fall — the
    /// covering bucket's upper edge, so at most 1/16 above the true
    /// quantile and never above `max`.
    pub fn quantile(&self, percent: u64) -> u64 {
        quantile_of(self.buckets.iter().copied(), self.count, percent)
    }

    /// `(value, cumulative_fraction)` points for plotting a CDF, one per
    /// non-empty bucket; the last is `(max, 1.0)`.
    pub fn cdf(&self) -> Vec<(u64, f64)> {
        let mut acc = 0u64;
        self.buckets
            .iter()
            .map(|&(edge, count)| {
                acc += count;
                (edge, acc as f64 / self.count as f64)
            })
            .collect()
    }

    /// Fraction of samples certain to be above `x`: one minus the CDF at
    /// the first edge `>= x`. Exact when `x` is a bucket edge; otherwise
    /// the samples sharing `x`'s bucket count as not above, an
    /// underestimate by at most that one bucket. 0 when empty.
    pub fn fraction_above(&self, x: u64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let mut at_or_below = 0u64;
        for &(edge, count) in &self.buckets {
            at_or_below += count;
            if edge >= x {
                break;
            }
        }
        1.0 - at_or_below as f64 / self.count as f64
    }
}
