//! `kmeans`: Lloyd's algorithm over dense points.
//!
//! Each iteration has two phases, exactly as in the benchmark suite:
//!
//! 1. **assign** — every point is labelled with its nearest centroid
//!    (embarrassingly parallel over points: [`assign_range`]);
//! 2. **update** — centroids are recomputed as the mean of their members
//!    (a reduction: [`partial_sums_range`] + [`reduce_centroids`]).
//!
//! Both the Pthreads and OmpSs variants parallelise over point ranges and
//! synchronise between the two phases of every iteration.

/// Squared Euclidean distance between two `dim`-dimensional points.
#[inline]
pub fn distance2(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b.iter())
        .map(|(x, y)| {
            let d = x - y;
            d * d
        })
        .sum()
}

/// Assign each point in `points[range]` (flattened, `dim` floats per point)
/// to its nearest centroid, writing labels into `labels[range]`.
///
/// # Panics
/// Panics if slices are inconsistent with `dim` or the range.
pub fn assign_range(
    points: &[f32],
    centroids: &[f32],
    dim: usize,
    range: std::ops::Range<usize>,
    labels: &mut [u32],
) {
    assert!(dim > 0, "dim must be positive");
    assert_eq!(
        points.len() % dim,
        0,
        "points length must be a multiple of dim"
    );
    assert_eq!(
        centroids.len() % dim,
        0,
        "centroids length must be a multiple of dim"
    );
    assert_eq!(
        labels.len(),
        range.len(),
        "labels slice must match the range"
    );
    let k = centroids.len() / dim;
    assert!(k > 0, "need at least one centroid");
    for (li, p) in range.enumerate() {
        let point = &points[p * dim..(p + 1) * dim];
        let mut best = 0u32;
        let mut best_d = f32::INFINITY;
        for c in 0..k {
            let d = distance2(point, &centroids[c * dim..(c + 1) * dim]);
            if d < best_d {
                best_d = d;
                best = c as u32;
            }
        }
        labels[li] = best;
    }
}

/// Per-range partial sums for the update phase: returns `(sums, counts)`
/// where `sums` is `k * dim` floats and `counts` is `k` point counts,
/// accumulated over `points[range]` with the given `labels[range]`.
pub fn partial_sums_range(
    points: &[f32],
    labels: &[u32],
    dim: usize,
    k: usize,
    range: std::ops::Range<usize>,
) -> (Vec<f64>, Vec<u64>) {
    assert_eq!(
        labels.len(),
        range.len(),
        "labels slice must match the range"
    );
    let mut sums = vec![0f64; k * dim];
    let mut counts = vec![0u64; k];
    for (li, p) in range.enumerate() {
        let c = labels[li] as usize;
        assert!(c < k, "label out of range");
        counts[c] += 1;
        let point = &points[p * dim..(p + 1) * dim];
        for d in 0..dim {
            sums[c * dim + d] += point[d] as f64;
        }
    }
    (sums, counts)
}

/// Combine partial sums into new centroids. Clusters that received no points
/// keep their previous centroid.
pub fn reduce_centroids(
    partials: &[(Vec<f64>, Vec<u64>)],
    previous: &[f32],
    dim: usize,
    k: usize,
) -> Vec<f32> {
    let mut sums = vec![0f64; k * dim];
    let mut counts = vec![0u64; k];
    for (ps, pc) in partials {
        for i in 0..k * dim {
            sums[i] += ps[i];
        }
        for c in 0..k {
            counts[c] += pc[c];
        }
    }
    let mut out = vec![0f32; k * dim];
    for c in 0..k {
        for d in 0..dim {
            out[c * dim + d] = if counts[c] > 0 {
                (sums[c * dim + d] / counts[c] as f64) as f32
            } else {
                previous[c * dim + d]
            };
        }
    }
    out
}

/// Result of a k-means run.
#[derive(Debug, Clone, PartialEq)]
pub struct KmeansResult {
    /// Final centroids, `k * dim` floats.
    pub centroids: Vec<f32>,
    /// Final label of every point.
    pub labels: Vec<u32>,
    /// Iterations actually executed.
    pub iterations: usize,
    /// Sum of squared distances of points to their centroid.
    pub inertia: f64,
}

/// Deterministic initial centroids: evenly strided points.
pub fn init_centroids(points: &[f32], dim: usize, k: usize) -> Vec<f32> {
    let n = points.len() / dim;
    assert!(n >= k, "need at least k points");
    let mut out = Vec::with_capacity(k * dim);
    for c in 0..k {
        let idx = c * n / k;
        out.extend_from_slice(&points[idx * dim..(idx + 1) * dim]);
    }
    out
}

/// Total within-cluster sum of squares.
pub fn inertia(points: &[f32], centroids: &[f32], labels: &[u32], dim: usize) -> f64 {
    let n = points.len() / dim;
    (0..n)
        .map(|p| {
            let c = labels[p] as usize;
            distance2(
                &points[p * dim..(p + 1) * dim],
                &centroids[c * dim..(c + 1) * dim],
            ) as f64
        })
        .sum()
}

/// Sequential reference implementation of Lloyd's algorithm.
pub fn kmeans_seq(points: &[f32], dim: usize, k: usize, max_iters: usize) -> KmeansResult {
    let n = points.len() / dim;
    let mut centroids = init_centroids(points, dim, k);
    let mut labels = vec![0u32; n];
    let mut iterations = 0;
    for _ in 0..max_iters {
        iterations += 1;
        let old_labels = labels.clone();
        assign_range(points, &centroids, dim, 0..n, &mut labels);
        let partial = partial_sums_range(points, &labels, dim, k, 0..n);
        centroids = reduce_centroids(&[partial], &centroids, dim, k);
        if labels == old_labels && iterations > 1 {
            break;
        }
    }
    let total_inertia = inertia(points, &centroids, &labels, dim);
    KmeansResult {
        centroids,
        labels,
        iterations,
        inertia: total_inertia,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::clustered_points;
    use proptest::prelude::*;

    #[test]
    fn distance2_basic() {
        assert_eq!(distance2(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
        assert_eq!(distance2(&[1.0], &[1.0]), 0.0);
    }

    #[test]
    fn assign_picks_nearest_centroid() {
        let points = [0.0f32, 0.0, 10.0, 10.0, 0.2, 0.1];
        let centroids = [0.0f32, 0.0, 10.0, 10.0];
        let mut labels = vec![0u32; 3];
        assign_range(&points, &centroids, 2, 0..3, &mut labels);
        assert_eq!(labels, vec![0, 1, 0]);
    }

    #[test]
    fn assign_subrange_matches_full() {
        let points = clustered_points(50, 3, 4, 9);
        let centroids = init_centroids(&points, 3, 4);
        let mut full = vec![0u32; 50];
        assign_range(&points, &centroids, 3, 0..50, &mut full);
        let mut part = vec![0u32; 20];
        assign_range(&points, &centroids, 3, 10..30, &mut part);
        assert_eq!(&part[..], &full[10..30]);
    }

    #[test]
    fn partial_sums_split_equals_whole() {
        let points = clustered_points(40, 2, 3, 5);
        let centroids = init_centroids(&points, 2, 3);
        let mut labels = vec![0u32; 40];
        assign_range(&points, &centroids, 2, 0..40, &mut labels);
        let whole = partial_sums_range(&points, &labels, 2, 3, 0..40);
        let a = partial_sums_range(&points, &labels[0..25], 2, 3, 0..25);
        let b = partial_sums_range(&points, &labels[25..40], 2, 3, 25..40);
        let merged = reduce_centroids(&[a, b], &centroids, 2, 3);
        let direct = reduce_centroids(&[whole], &centroids, 2, 3);
        for (x, y) in merged.iter().zip(direct.iter()) {
            assert!((x - y).abs() < 1e-4);
        }
    }

    #[test]
    fn empty_cluster_keeps_previous_centroid() {
        let previous = vec![1.0f32, 2.0, 3.0, 4.0];
        let partials = vec![(vec![0.0f64; 4], vec![0u64; 2])];
        let out = reduce_centroids(&partials, &previous, 2, 2);
        assert_eq!(out, previous);
    }

    #[test]
    fn kmeans_converges_and_reduces_inertia() {
        let points = clustered_points(200, 2, 4, 42);
        let initial_centroids = init_centroids(&points, 2, 4);
        let mut initial_labels = vec![0u32; 200];
        assign_range(&points, &initial_centroids, 2, 0..200, &mut initial_labels);
        let initial_inertia = inertia(&points, &initial_centroids, &initial_labels, 2);
        let result = kmeans_seq(&points, 2, 4, 50);
        assert!(result.iterations >= 2);
        assert!(
            result.inertia <= initial_inertia + 1e-6,
            "k-means must not increase inertia: {} -> {}",
            initial_inertia,
            result.inertia
        );
        assert_eq!(result.labels.len(), 200);
        assert_eq!(result.centroids.len(), 8);
    }

    #[test]
    fn kmeans_is_deterministic() {
        let points = clustered_points(100, 3, 3, 7);
        let a = kmeans_seq(&points, 3, 3, 20);
        let b = kmeans_seq(&points, 3, 3, 20);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "at least k points")]
    fn too_few_points_panics() {
        let _ = init_centroids(&[1.0, 2.0], 2, 5);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Assignment labels are always valid cluster indices, and every
        /// point is closer (or equal) to its assigned centroid than to any
        /// other.
        #[test]
        fn prop_assignment_is_argmin(n in 4usize..60, k in 1usize..5, seed in 0u64..50) {
            let dim = 2;
            let points = clustered_points(n, dim, k, seed);
            let centroids = init_centroids(&points, dim, k);
            let mut labels = vec![0u32; n];
            assign_range(&points, &centroids, dim, 0..n, &mut labels);
            for p in 0..n {
                let assigned = labels[p] as usize;
                prop_assert!(assigned < k);
                let da = distance2(&points[p*dim..(p+1)*dim], &centroids[assigned*dim..(assigned+1)*dim]);
                for c in 0..k {
                    let dc = distance2(&points[p*dim..(p+1)*dim], &centroids[c*dim..(c+1)*dim]);
                    prop_assert!(da <= dc + 1e-5);
                }
            }
        }

        /// Lloyd iterations never increase inertia (monotone convergence).
        #[test]
        fn prop_inertia_monotone(n in 10usize..80, k in 1usize..4, seed in 0u64..20) {
            let dim = 2;
            let points = clustered_points(n, dim, k + 1, seed);
            let mut centroids = init_centroids(&points, dim, k);
            let mut labels = vec![0u32; n];
            let mut last = f64::INFINITY;
            for _ in 0..6 {
                assign_range(&points, &centroids, dim, 0..n, &mut labels);
                let current = inertia(&points, &centroids, &labels, dim);
                prop_assert!(current <= last + 1e-3, "inertia rose: {last} -> {current}");
                let partial = partial_sums_range(&points, &labels, dim, k, 0..n);
                centroids = reduce_centroids(&[partial], &centroids, dim, k);
                last = current;
            }
        }
    }
}
