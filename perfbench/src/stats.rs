//! Order statistics with their sample counts.
//!
//! A percentile is only reported when at least [`MIN_BEYOND`] samples lie
//! beyond it: with fewer, a "p99" is just the maximum of a short run and
//! says nothing about the tail.

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// A percentile together with the sample it was taken from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pct {
    /// Requested quantile in `[0, 1]`.
    pub q: f64,
    /// The order statistic at `q` (nearest rank).
    pub value: f64,
    /// Samples the percentile was taken from.
    pub n: usize,
}

/// The 1-based nearest rank of quantile `q` among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    // The epsilon keeps q·n that lands on an integer (0.99 · 1000) from
    // rounding up a whole rank through binary representation error.
    ((q * n as f64 - 1e-9).ceil() as usize).clamp(1, n.max(1))
}

/// The order statistic at 1-based `rank`.
fn at_rank(samples: &[f64], rank: usize, q: f64) -> Pct {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Pct {
        q,
        value: sorted[rank - 1],
        n: samples.len(),
    }
}

/// The nearest-rank percentile `q` of `samples`, refused (`Err`) when
/// fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(samples: &[f64], q: f64) -> Result<Pct, String> {
    let n = samples.len();
    let beyond = n.saturating_sub(rank(n, q));
    if beyond < MIN_BEYOND {
        return Err(format!(
            "p{} of {n} samples has {beyond} beyond it; {MIN_BEYOND} are needed",
            q * 100.0
        ));
    }
    Ok(at_rank(samples, rank(n, q), q))
}

/// The highest percentile up to `q` that [`percentile`] would accept:
/// `q` itself when the sample is large enough, otherwise the order
/// statistic that leaves exactly [`MIN_BEYOND`] samples beyond it.
pub fn tail(samples: &[f64], q: f64) -> Result<Pct, String> {
    let n = samples.len();
    if n.saturating_sub(rank(n, q)) >= MIN_BEYOND {
        return percentile(samples, q);
    }
    if n < 2 * MIN_BEYOND {
        return Err(format!("{n} samples cannot support any tail percentile"));
    }
    let r = n - MIN_BEYOND;
    Ok(at_rank(samples, r, r as f64 / n as f64))
}

/// A median for per-call times near the clock's granularity: the mean
/// of the middle half of the samples (the interquartile mean). A
/// nearest-rank p50 of ~100 ns calls timed in whole nanoseconds lands on
/// the same few integers run after run; the midmean keeps the digits that
/// differ. Refused like [`percentile`] when fewer than [`MIN_BEYOND`]
/// samples lie beyond the median.
pub fn midmean(samples: &[f64]) -> Result<Pct, String> {
    let p = percentile(samples, 0.5)?;
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let band = &sorted[rank(n, 0.25) - 1..rank(n, 0.75)];
    Ok(Pct {
        value: band.iter().sum::<f64>() / band.len() as f64,
        ..p
    })
}

/// Median of a non-empty sample (the mean of the middle pair when even).
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_carry_their_sample_count() {
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        let p50 = percentile(&samples, 0.5).unwrap();
        assert_eq!((p50.value, p50.n), (500.0, 1000));
        let p99 = percentile(&samples, 0.99).unwrap();
        assert_eq!((p99.value, p99.n), (990.0, 1000));
    }

    #[test]
    fn a_percentile_with_fewer_than_ten_samples_beyond_is_refused() {
        let samples: Vec<f64> = (0..999).map(f64::from).collect();
        assert!(percentile(&samples, 0.99).is_err(), "9 beyond p99 of 999");
        let samples: Vec<f64> = (0..1000).map(f64::from).collect();
        assert!(percentile(&samples, 0.99).is_ok(), "10 beyond p99 of 1000");
        assert!(percentile(&samples[..19], 0.5).is_err());
    }

    #[test]
    fn tail_falls_back_to_the_highest_supported_percentile() {
        let samples: Vec<f64> = (1..=300).map(f64::from).collect();
        let t = tail(&samples, 0.99).unwrap();
        assert_eq!(t.value, 290.0);
        assert!(t.q < 0.99);
        let big: Vec<f64> = (1..=2000).map(f64::from).collect();
        assert_eq!(tail(&big, 0.99).unwrap().q, 0.99);
        assert!(tail(&samples[..19], 0.99).is_err());
    }

    #[test]
    fn midmean_averages_the_middle_half() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        let m = midmean(&samples).unwrap();
        assert_eq!((m.value, m.n), (50.0, 100));
        let quantized = [vec![100.0; 60], vec![110.0; 40]].concat();
        let m = midmean(&quantized).unwrap().value;
        assert!(m > 100.0 && m < 110.0, "{m}");
        assert!(midmean(&samples[..19]).is_err());
    }

    #[test]
    fn median_of_even_and_odd_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
