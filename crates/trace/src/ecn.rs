//! The ECN bounce-statistics model (paper Fig. 3).
//!
//! The paper measured the Purdue Engineering Computer Network mail server
//! (≈20,000 users) for ~13 months starting December 15, 2006 and found
//! 20–25% of mails bounced (with a slight upward trend over the year) and
//! 5–15% of connections left unfinished. This module generates a daily
//! series with those levels, used both to regenerate Fig. 3 and to pick
//! the bounce ratio of the §8 combined workload.

use rand::Rng;
use spamaware_sim::det_rng;
use spamaware_sim::dist::standard_normal;

/// One day of ECN-style bounce statistics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EcnDay {
    /// Day index from the start of the measurement (0-based).
    pub day: u32,
    /// Fraction of mails that bounced (550 User unknown).
    pub bounce_ratio: f64,
    /// Fraction of connections that were unfinished SMTP transactions.
    pub unfinished_ratio: f64,
}

/// The full daily series.
#[derive(Debug, Clone, PartialEq)]
pub struct EcnSeries {
    /// One entry per day.
    pub days: Vec<EcnDay>,
}

impl EcnSeries {
    /// Generates `n_days` of daily statistics (the paper's window is ~395
    /// days).
    ///
    /// # Panics
    ///
    /// Panics if `n_days == 0`.
    pub fn generate(seed: u64, n_days: u32) -> EcnSeries {
        assert!(n_days > 0, "need at least one day");
        let mut rng = det_rng(seed ^ 0xEC4);
        let mut days = Vec::with_capacity(n_days as usize);
        for day in 0..n_days {
            let t = day as f64 / 365.0;
            // Bounce: ~21% rising to ~25% over the year, weekly ripple.
            let weekly = 0.008 * (day as f64 * std::f64::consts::TAU / 7.0).sin();
            let bounce = 0.21 + 0.035 * t + weekly + 0.012 * standard_normal(&mut rng);
            // Unfinished: 5–15%, slow oscillation (campaign-driven).
            let slow = 0.035 * (day as f64 * std::f64::consts::TAU / 53.0).sin();
            let unfinished = 0.095 + slow + 0.015 * standard_normal(&mut rng);
            days.push(EcnDay {
                day,
                bounce_ratio: bounce.clamp(0.16, 0.30),
                unfinished_ratio: unfinished.clamp(0.04, 0.16),
            });
            let _ = rng.gen::<u8>(); // decorrelate consecutive days slightly
        }
        EcnSeries { days }
    }

    /// Mean bounce ratio over the series.
    pub fn mean_bounce(&self) -> f64 {
        self.days.iter().map(|d| d.bounce_ratio).sum::<f64>() / self.days.len() as f64
    }

    /// Mean unfinished ratio over the series.
    pub fn mean_unfinished(&self) -> f64 {
        self.days.iter().map(|d| d.unfinished_ratio).sum::<f64>() / self.days.len() as f64
    }

    /// The combined "bounce connection" level (paper: bounces plus
    /// unfinished, 25–45% over the measurement period), used for the §8
    /// combined workload.
    pub fn mean_bounce_connections(&self) -> f64 {
        self.mean_bounce() + self.mean_unfinished()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series() -> EcnSeries {
        EcnSeries::generate(1, 395)
    }

    #[test]
    fn levels_match_paper_bands() {
        let s = series();
        for d in &s.days {
            assert!(
                (0.15..=0.31).contains(&d.bounce_ratio),
                "day {} bounce {}",
                d.day,
                d.bounce_ratio
            );
            assert!(
                (0.03..=0.17).contains(&d.unfinished_ratio),
                "day {} unfinished {}",
                d.day,
                d.unfinished_ratio
            );
        }
        assert!((0.20..=0.26).contains(&s.mean_bounce()));
        assert!((0.07..=0.13).contains(&s.mean_unfinished()));
    }

    #[test]
    fn bounce_trends_upward() {
        // Paper: "a slight increase in the percentage of bounces within a
        // year's time frame".
        let s = series();
        let first_q: f64 = s.days[..90].iter().map(|d| d.bounce_ratio).sum::<f64>() / 90.0;
        let last_q: f64 = s.days[305..].iter().map(|d| d.bounce_ratio).sum::<f64>() / 90.0;
        assert!(last_q > first_q + 0.01, "first {first_q} last {last_q}");
    }

    #[test]
    fn combined_level_in_ecn_band() {
        // Paper §4.1: "bounces and rogue connections currently stands
        // between 25 and 45%".
        let s = series();
        let combined = s.mean_bounce_connections();
        assert!((0.25..=0.45).contains(&combined), "combined {combined}");
    }

    #[test]
    fn deterministic_and_daylength() {
        let a = EcnSeries::generate(9, 100);
        let b = EcnSeries::generate(9, 100);
        assert_eq!(a, b);
        assert_eq!(a.days.len(), 100);
        assert_eq!(a.days[99].day, 99);
    }
}
