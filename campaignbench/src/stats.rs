//! Order statistics for the benchmark: medians, quartiles, tail
//! percentiles with their sample counts, and span self time.

/// The upper median: the middle element of the sorted samples, or the
/// upper of the two middle elements for an even count. `0.0` when empty.
pub fn median(samples: &[f64]) -> f64 {
    let sorted = sorted(samples);
    sorted.get(sorted.len() / 2).copied().unwrap_or(0.0)
}

/// The three quartile cut points `[q1, q2, q3]`, interpolated as Python's
/// `statistics.quantiles(samples, n=4)` does with its default
/// `"exclusive"` method. A single sample is every quartile; no samples
/// give zeros.
pub fn quartiles(samples: &[f64]) -> [f64; 3] {
    let sorted = sorted(samples);
    match sorted.len() {
        0 => return [0.0; 3],
        1 => return [sorted[0]; 3],
        _ => {}
    }
    let m = sorted.len() + 1;
    let mut cuts = [0.0; 3];
    for (i, cut) in cuts.iter_mut().enumerate() {
        let scaled = (i + 1) * m;
        let j = scaled / 4;
        let delta = (scaled - j * 4) as f64;
        let lo = sorted[j.saturating_sub(1)];
        let hi = sorted[j.min(sorted.len() - 1)];
        *cut = (lo * (4.0 - delta) + hi * delta) / 4.0;
    }
    cuts
}

/// Interquartile range over the median: the run-to-run spread a bound is
/// compared against. `0.0` when the median is zero.
pub fn relative_spread(samples: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(samples);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2
    }
}

/// The nearest-rank `p`-th percentile (`0 < p <= 100`) of samples that are
/// already sorted ascending. `0.0` when empty.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[nearest_rank(sorted.len(), p) - 1]
}

/// A tail percentile together with the evidence behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile, e.g. `99.0`.
    pub percentile: f64,
    /// Its value.
    pub value: f64,
    /// How many samples it was taken from.
    pub samples: usize,
}

/// The percentiles [`tail`] tries, highest first.
const TAIL_PERCENTILES: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// The highest of p99.9, p99, p95, p90, p75 and p50 that has at least ten
/// samples beyond it, with the sample count. `None` when even the median
/// has fewer than ten samples above it.
pub fn tail(samples: &[f64]) -> Option<Tail> {
    let sorted = sorted(samples);
    let n = sorted.len();
    TAIL_PERCENTILES
        .iter()
        .find(|&&p| n > 0 && n - nearest_rank(n, p) >= 10)
        .map(|&p| Tail {
            percentile: p,
            value: percentile_sorted(&sorted, p),
            samples: n,
        })
}

/// A span's self time: its duration minus the part of `[start, end)` that
/// its children cover. Children may overlap each other or stick out of
/// the parent; only the covered part of the parent's interval counts.
pub fn self_time(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|&(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut reach = start;
    for (s, e) in clipped {
        let s = s.max(reach);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    end.saturating_sub(start) - covered
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

/// 1-based nearest rank of the `p`-th percentile among `n` samples. The
/// epsilon keeps a decimal `p` such as 99.9, which is inexact in binary,
/// from rounding an exact rank up by one.
fn nearest_rank(n: usize, p: f64) -> usize {
    ((p * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_is_the_upper_middle() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0]), 4.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 2.0, 1.0, 3.0]), 3.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0]), [1.5, 3.0, 4.5]);
        assert_eq!(quartiles(&[7.0]), [7.0; 3]);
        assert_eq!(relative_spread(&ten), (8.25 - 2.75) / 5.5);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&thousand).expect("1000 samples have a p99");
        assert_eq!((t.percentile, t.value, t.samples), (99.0, 990.0, 1000));

        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&hundred).expect("100 samples have a p90");
        assert_eq!((t.percentile, t.value), (90.0, 90.0));

        assert!(tail(&[1.0; 15]).is_none());
        assert_eq!(percentile_sorted(&thousand, 50.0), 500.0);
        assert_eq!(percentile_sorted(&[], 50.0), 0.0);
    }

    #[test]
    fn self_time_subtracts_covered_children_once() {
        assert_eq!(self_time(0, 100, &[]), 100);
        assert_eq!(self_time(0, 100, &[(0, 40), (40, 100)]), 0);
        assert_eq!(self_time(0, 100, &[(10, 30), (20, 50)]), 60);
        assert_eq!(self_time(10, 20, &[(0, 15), (18, 40)]), 3);
        assert_eq!(self_time(0, 10, &[(20, 30)]), 10);
    }
}
