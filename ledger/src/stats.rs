//! Order statistics over timing samples.

/// Median, quartiles and count of one metric's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// A value that was computed, not sampled (a count, a ratio of medians).
    pub fn point(value: f64) -> Self {
        Summary {
            median: value,
            q1: value,
            q3: value,
            n: 1,
        }
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The three quartile cut points, computed as Python's
/// `statistics.quantiles(samples, n=4)` computes them, so that a spread
/// printed here is the spread the acceptance check takes.
pub fn quartiles(samples: &[f64]) -> [f64; 3] {
    let v = sorted(samples);
    let n = v.len();
    assert!(n > 0, "no samples");
    if n == 1 {
        return [v[0]; 3];
    }
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

pub fn summarize(samples: &[f64]) -> Summary {
    let [q1, median, q3] = quartiles(samples);
    Summary {
        median,
        q1,
        q3,
        n: samples.len(),
    }
}

pub fn median(samples: &[f64]) -> f64 {
    quartiles(samples)[1]
}

/// Nearest-rank percentile, `p` in (0, 100].
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let v = sorted(samples);
    assert!(!v.is_empty(), "no samples");
    // The tolerance keeps 99.9 % of 1000 at rank 999 despite rounding.
    let rank = (p / 100.0 * v.len() as f64 - 1e-9).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The highest percentile of the usual ladder that still has at least ten
/// samples beyond it; `None` below twenty samples, where even the median
/// does not.
pub fn tail_percentile(n: usize) -> Option<f64> {
    // Per mille, so that the count beyond is exact.
    [999usize, 990, 950, 900, 750, 500]
        .into_iter()
        .find(|pm| n * (1000 - pm) >= 10_000)
        .map(|pm| pm as f64 / 10.0)
}

/// Geometric mean of positive values.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "no values");
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        assert_eq!(quartiles(&[7.0]), [7.0; 3]);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        let s = summarize(&v);
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.75, 5.5, 8.25, 10));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[5.0], 99.0), 5.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
    }

    #[test]
    fn geomean_of_reciprocals_is_one() {
        assert!((geomean(&[0.5, 2.0]) - 1.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
    }
}
