//! Random distributions built directly on [`rand`].
//!
//! The workload models in this workspace need exponential, lognormal and
//! Pareto samplers. `rand_distr` is outside the sanctioned
//! dependency set, so the samplers are implemented here from uniform
//! variates; each is exact (inverse-CDF or Box–Muller), not approximate.

use rand::Rng;

/// Samples from a distribution over `f64` using the supplied RNG.
pub trait Sample {
    /// Draws one value.
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64;
}

/// Exponential distribution with rate `lambda` (mean `1/lambda`).
///
/// # Example
///
/// ```
/// use spamaware_sim::dist::{Exponential, Sample};
/// let mut rng = spamaware_sim::det_rng(1);
/// let exp = Exponential::new(2.0);
/// let x = exp.sample(&mut rng);
/// assert!(x >= 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exponential {
    lambda: f64,
}

impl Exponential {
    /// Creates an exponential distribution with rate `lambda`.
    ///
    /// # Panics
    ///
    /// Panics if `lambda` is not strictly positive and finite.
    pub fn new(lambda: f64) -> Exponential {
        assert!(
            lambda > 0.0 && lambda.is_finite(),
            "lambda must be positive and finite, got {lambda}"
        );
        Exponential { lambda }
    }

    /// Creates an exponential distribution with the given mean.
    pub fn with_mean(mean: f64) -> Exponential {
        Exponential::new(1.0 / mean)
    }

    /// The distribution mean, `1/lambda`.
    pub fn mean(&self) -> f64 {
        1.0 / self.lambda
    }
}

impl Sample for Exponential {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        // Inverse CDF; 1-u avoids ln(0).
        let u: f64 = rng.gen::<f64>();
        -(1.0 - u).ln() / self.lambda
    }
}

/// Standard normal variate via the Box–Muller transform.
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let u1: f64 = rng.gen();
        if u1 <= f64::MIN_POSITIVE {
            continue;
        }
        let u2: f64 = rng.gen();
        return (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
    }
}

/// Lognormal distribution: `exp(mu + sigma * N(0,1))`.
///
/// Used for mail body sizes and DNS latency bodies, both of which are
/// classically lognormal-ish heavy-bodied.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogNormal {
    mu: f64,
    sigma: f64,
}

impl LogNormal {
    /// Creates a lognormal with log-space mean `mu` and log-space standard
    /// deviation `sigma`.
    ///
    /// # Panics
    ///
    /// Panics if `sigma` is negative or either parameter is non-finite.
    pub fn new(mu: f64, sigma: f64) -> LogNormal {
        assert!(mu.is_finite() && sigma.is_finite() && sigma >= 0.0);
        LogNormal { mu, sigma }
    }

    /// Creates a lognormal from the desired *linear-space* median and the
    /// log-space sigma. (The median of a lognormal is `exp(mu)`.)
    pub fn with_median(median: f64, sigma: f64) -> LogNormal {
        assert!(median > 0.0);
        LogNormal::new(median.ln(), sigma)
    }

    /// The linear-space mean `exp(mu + sigma^2/2)`.
    pub fn mean(&self) -> f64 {
        (self.mu + self.sigma * self.sigma / 2.0).exp()
    }

    /// The linear-space median `exp(mu)`.
    pub fn median(&self) -> f64 {
        self.mu.exp()
    }
}

impl Sample for LogNormal {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        (self.mu + self.sigma * standard_normal(rng)).exp()
    }
}

/// Pareto (type I) distribution with scale `xm > 0` and shape `alpha > 0`.
///
/// Heavy-tailed; used for per-prefix bot populations, where a few /24s
/// contain hundreds of blacklisted hosts (paper Fig. 12).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pareto {
    xm: f64,
    alpha: f64,
}

impl Pareto {
    /// Creates a Pareto distribution.
    ///
    /// # Panics
    ///
    /// Panics if `xm` or `alpha` is not strictly positive and finite.
    pub fn new(xm: f64, alpha: f64) -> Pareto {
        assert!(xm > 0.0 && xm.is_finite());
        assert!(alpha > 0.0 && alpha.is_finite());
        Pareto { xm, alpha }
    }

    /// The survival function `P(X > x)`.
    pub fn survival(&self, x: f64) -> f64 {
        if x <= self.xm {
            1.0
        } else {
            (self.xm / x).powf(self.alpha)
        }
    }
}

impl Sample for Pareto {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let u: f64 = rng.gen();
        self.xm / (1.0 - u).powf(1.0 / self.alpha)
    }
}

/// An empirical discrete distribution over arbitrary values with weights.
///
/// # Example
///
/// ```
/// use spamaware_sim::dist::Weighted;
/// let mut rng = spamaware_sim::det_rng(3);
/// let d = Weighted::new(vec![("ham", 1.0), ("spam", 2.0)]);
/// let v = d.sample_value(&mut rng);
/// assert!(*v == "ham" || *v == "spam");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Weighted<T> {
    items: Vec<T>,
    cdf: Vec<f64>,
}

impl<T> Weighted<T> {
    /// Builds the distribution from `(value, weight)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if `pairs` is empty, any weight is negative/non-finite, or
    /// all weights are zero.
    pub fn new(pairs: Vec<(T, f64)>) -> Weighted<T> {
        assert!(!pairs.is_empty(), "weighted distribution needs items");
        let mut items = Vec::with_capacity(pairs.len());
        let mut cdf = Vec::with_capacity(pairs.len());
        let mut acc = 0.0;
        for (v, w) in pairs {
            assert!(w.is_finite() && w >= 0.0, "weights must be >= 0");
            acc += w;
            items.push(v);
            cdf.push(acc);
        }
        assert!(acc > 0.0, "total weight must be positive");
        for v in &mut cdf {
            *v /= acc;
        }
        Weighted { items, cdf }
    }

    /// Draws a reference to one of the values.
    pub fn sample_value<R: Rng + ?Sized>(&self, rng: &mut R) -> &T {
        let u: f64 = rng.gen();
        let idx = match self
            .cdf
            .binary_search_by(|p| p.partial_cmp(&u).expect("cdf has no NaN"))
        {
            Ok(i) => i + 1,
            Err(i) => i,
        };
        &self.items[idx.min(self.items.len() - 1)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::det_rng;

    fn mean_of(n: usize, mut f: impl FnMut() -> f64) -> f64 {
        (0..n).map(|_| f()).sum::<f64>() / n as f64
    }

    #[test]
    fn exponential_mean_converges() {
        let mut rng = det_rng(11);
        let d = Exponential::with_mean(4.0);
        let m = mean_of(40_000, || d.sample(&mut rng));
        assert!((m - 4.0).abs() < 0.15, "mean {m}");
        assert!((d.mean() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn exponential_is_nonnegative() {
        let mut rng = det_rng(12);
        let d = Exponential::new(0.5);
        for _ in 0..1000 {
            assert!(d.sample(&mut rng) >= 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "lambda must be positive")]
    fn exponential_rejects_zero_rate() {
        Exponential::new(0.0);
    }

    #[test]
    fn lognormal_median_and_mean() {
        let mut rng = det_rng(13);
        let d = LogNormal::with_median(100.0, 0.5);
        assert!((d.median() - 100.0).abs() < 1e-9);
        let m = mean_of(60_000, || d.sample(&mut rng));
        assert!(
            (m - d.mean()).abs() / d.mean() < 0.05,
            "mean {m} vs {}",
            d.mean()
        );
    }

    #[test]
    fn standard_normal_moments() {
        let mut rng = det_rng(14);
        let n = 60_000;
        let xs: Vec<f64> = (0..n).map(|_| standard_normal(&mut rng)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn pareto_survival_matches_samples() {
        let mut rng = det_rng(15);
        let d = Pareto::new(1.0, 1.5);
        let n = 50_000;
        let above3 = (0..n).filter(|_| d.sample(&mut rng) > 3.0).count() as f64 / n as f64;
        assert!((above3 - d.survival(3.0)).abs() < 0.01);
        assert!((d.survival(0.5) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn weighted_frequencies_match() {
        let mut rng = det_rng(17);
        let d = Weighted::new(vec![(0u8, 1.0), (1u8, 3.0)]);
        let n = 40_000;
        let ones = (0..n).filter(|_| *d.sample_value(&mut rng) == 1).count() as f64 / n as f64;
        assert!((ones - 0.75).abs() < 0.02, "p {ones}");
    }

    #[test]
    #[should_panic(expected = "total weight must be positive")]
    fn weighted_rejects_all_zero() {
        let _ = Weighted::new(vec![((), 0.0)]);
    }

    #[test]
    fn samplers_are_deterministic_per_seed() {
        let d = LogNormal::new(1.0, 0.7);
        let a: Vec<f64> = {
            let mut r = det_rng(99);
            (0..10).map(|_| d.sample(&mut r)).collect()
        };
        let b: Vec<f64> = {
            let mut r = det_rng(99);
            (0..10).map(|_| d.sample(&mut r)).collect()
        };
        assert_eq!(a, b);
    }
}

/// Draws a Poisson-distributed count with the given mean.
///
/// Uses Knuth's product method for small means and a clamped normal
/// approximation above 30, which is ample for workload-generation use.
///
/// # Panics
///
/// Panics if `mean` is negative or non-finite.
pub fn poisson<R: Rng + ?Sized>(rng: &mut R, mean: f64) -> u64 {
    assert!(mean.is_finite() && mean >= 0.0, "poisson mean must be >= 0");
    if mean == 0.0 {
        return 0;
    }
    if mean > 30.0 {
        let v = mean + mean.sqrt() * standard_normal(rng);
        return v.round().max(0.0) as u64;
    }
    let l = (-mean).exp();
    let mut k = 0u64;
    let mut p = 1.0;
    loop {
        p *= rng.gen::<f64>();
        if p <= l {
            return k;
        }
        k += 1;
    }
}

#[cfg(test)]
mod count_tests {
    use super::*;
    use crate::det_rng;

    #[test]
    fn poisson_mean_and_variance_match() {
        let mut rng = det_rng(31);
        let n = 40_000;
        let xs: Vec<f64> = (0..n).map(|_| poisson(&mut rng, 3.7) as f64).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!((mean - 3.7).abs() < 0.1, "mean {mean}");
        assert!((var - 3.7).abs() < 0.25, "var {var}");
    }

    #[test]
    fn poisson_large_mean_uses_normal_branch() {
        let mut rng = det_rng(32);
        let n = 20_000;
        let mean = (0..n).map(|_| poisson(&mut rng, 100.0) as f64).sum::<f64>() / n as f64;
        assert!((mean - 100.0).abs() < 1.0, "mean {mean}");
    }

    #[test]
    fn poisson_zero_mean_is_zero() {
        let mut rng = det_rng(33);
        assert_eq!(poisson(&mut rng, 0.0), 0);
    }
}
