//! Order statistics used by every metric: medians, the tail-percentile
//! rule and a least-squares slope.

/// Median of `xs` (mean of the two middle values for an even count);
/// NaN for an empty slice. Infinite samples sort last.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        let (lo, hi) = (v[n / 2 - 1], v[n / 2]);
        if hi.is_infinite() {
            hi
        } else {
            (lo + hi) / 2.0
        }
    }
}

/// Index of the nearest-rank `p`-th percentile in a sorted sample of `n`.
fn rank_index(p: f64, n: usize) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// A tail latency: which percentile it is and how many samples lie
/// beyond it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// Percentile: 50 to 99.9, or 100 for the maximum.
    pub percentile: f64,
    /// The nearest-rank value at that percentile.
    pub value: f64,
    /// Samples strictly after it in sorted order.
    pub beyond: usize,
    /// Sample count.
    pub samples: usize,
}

/// Candidate percentiles, highest first: 99.9, then 99 down to 50.
fn ladder() -> impl Iterator<Item = f64> {
    std::iter::once(99.9).chain((50..=99).rev().map(f64::from))
}

/// The highest percentile with at least `min_beyond` samples beyond it
/// (nearest rank). When the sample is too small for any percentile to
/// qualify, it is the maximum (percentile 100, nothing beyond).
pub fn tail(xs: &[f64], min_beyond: usize) -> Tail {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return Tail { percentile: 50.0, value: f64::NAN, beyond: 0, samples: 0 };
    }
    let pick = |p: f64| {
        let i = rank_index(p, n);
        Tail { percentile: p, value: v[i], beyond: n - 1 - i, samples: n }
    };
    ladder().map(pick).find(|t| t.beyond >= min_beyond).unwrap_or_else(|| pick(100.0))
}

/// Least-squares slope of `ys` over `xs`; NaN with fewer than two
/// distinct x values.
pub fn slope(xs: &[f64], ys: &[f64]) -> f64 {
    let n = xs.len().min(ys.len()) as f64;
    if n < 2.0 {
        return f64::NAN;
    }
    let mx = xs.iter().sum::<f64>() / n;
    let my = ys.iter().sum::<f64>() / n;
    let sxy: f64 = xs.iter().zip(ys).map(|(x, y)| (x - mx) * (y - my)).sum();
    let sxx: f64 = xs.iter().map(|x| (x - mx) * (x - mx)).sum();
    if sxx == 0.0 {
        f64::NAN
    } else {
        sxy / sxx
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn tail_keeps_at_least_ten_samples_beyond() {
        for n in [20usize, 21, 36, 50, 99, 100, 101, 250, 1000, 1009, 5000, 20000] {
            let xs: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let t = tail(&xs, 10);
            assert!(t.beyond >= 10, "n={n}: {t:?}");
            assert_eq!(t.samples, n);
            assert_eq!(t.beyond, xs.iter().filter(|&&x| x > t.value).count(), "n={n}");
            // The next percentile up would leave fewer than ten beyond.
            if let Some(next) = ladder().take_while(|&p| p > t.percentile).last() {
                assert!(n - 1 - rank_index(next, n) < 10, "n={n}: p{next} also qualifies");
            }
        }
    }

    #[test]
    fn tail_picks_known_percentiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&xs, 10);
        assert_eq!((t.percentile, t.value, t.beyond), (90.0, 90.0, 10));
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&xs, 10).percentile, 99.0);
    }

    #[test]
    fn a_failed_operation_sits_in_the_tail_as_infinity() {
        let mut xs: Vec<f64> = (1..=100).map(f64::from).collect();
        xs[0] = f64::INFINITY;
        let t = tail(&xs, 10);
        assert_eq!(t.percentile, 90.0);
        assert_eq!(t.value, 91.0, "the infinite sample sorts last and pushes the rank up");
        let all_failed = vec![f64::INFINITY; 30];
        assert!(tail(&all_failed, 10).value.is_infinite());
        assert!(median(&all_failed).is_infinite());
    }

    #[test]
    fn tiny_samples_fall_back_to_the_maximum() {
        let t = tail(&[1.0, 3.0, 2.0], 10);
        assert_eq!((t.percentile, t.value, t.beyond), (100.0, 3.0, 0));
    }

    #[test]
    fn slope_of_a_line() {
        let xs = [0.0, 1.0, 2.0, 3.0];
        let ys = [1.0, 3.0, 5.0, 7.0];
        assert!((slope(&xs, &ys) - 2.0).abs() < 1e-12);
        assert!(slope(&[1.0], &[1.0]).is_nan());
    }
}
