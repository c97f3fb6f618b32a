//! `streamcluster`: online k-median clustering (PARSEC-style).
//!
//! The PARSEC streamcluster kernel processes a stream of points in blocks;
//! for each block it runs a facility-location style local search: every point
//! is a candidate new centre, and opening it is evaluated by the *gain* —
//! the cost reduction obtained if points closer to the candidate than to
//! their current centre were reassigned (minus the facility opening cost).
//! The gain evaluation over all points is the data-parallel phase the paper's
//! suite parallelises, with a barrier between candidates.
//!
//! This module implements the same structure:
//! [`gain_range`] is the parallel work unit, [`local_search_seq`] the
//! sequential driver, and [`stream_cluster_seq`] the block-streaming wrapper.

use crate::kmeans::distance2;

/// Clustering state over a block of points.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterState {
    /// Index (within the block) of the centre each point is assigned to.
    pub assignment: Vec<u32>,
    /// Cost (squared distance) of each point to its centre.
    pub cost: Vec<f32>,
    /// Indices of the currently open centres.
    pub centers: Vec<u32>,
}

impl ClusterState {
    /// Initialise with a single open centre: point 0.
    pub fn singleton(points: &[f32], dim: usize) -> Self {
        let n = points.len() / dim;
        assert!(n > 0, "need at least one point");
        let center = &points[0..dim];
        let mut assignment = vec![0u32; n];
        let mut cost = vec![0f32; n];
        for p in 0..n {
            cost[p] = distance2(&points[p * dim..(p + 1) * dim], center);
            assignment[p] = 0;
        }
        ClusterState {
            assignment,
            cost,
            centers: vec![0],
        }
    }

    /// Total assignment cost.
    pub fn total_cost(&self) -> f64 {
        self.cost.iter().map(|&c| c as f64).sum()
    }
}

/// Evaluate the gain of opening `candidate` as a new centre, restricted to
/// points in `range`: returns `(gain_contribution, switchers)` where
/// `switchers` lists the points in `range` that would switch to the
/// candidate. The full gain of the candidate is the sum of all range
/// contributions minus `facility_cost`.
pub fn gain_range(
    points: &[f32],
    dim: usize,
    state: &ClusterState,
    candidate: usize,
    range: std::ops::Range<usize>,
) -> (f64, Vec<u32>) {
    let cand_point = &points[candidate * dim..(candidate + 1) * dim];
    let mut gain = 0f64;
    let mut switchers = Vec::new();
    for p in range {
        let d = distance2(&points[p * dim..(p + 1) * dim], cand_point);
        if d < state.cost[p] {
            gain += (state.cost[p] - d) as f64;
            switchers.push(p as u32);
        }
    }
    (gain, switchers)
}

/// Apply the opening of `candidate`: reassign all `switchers` to it.
pub fn apply_open(
    points: &[f32],
    dim: usize,
    state: &mut ClusterState,
    candidate: usize,
    switchers: &[u32],
) {
    let cand_point = &points[candidate * dim..(candidate + 1) * dim];
    state.centers.push(candidate as u32);
    for &p in switchers {
        let p = p as usize;
        state.assignment[p] = candidate as u32;
        state.cost[p] = distance2(&points[p * dim..(p + 1) * dim], cand_point);
    }
}

/// Sequential local search over one block: consider every `stride`-th point
/// as a candidate centre and open it when the gain exceeds `facility_cost`.
/// Returns the final state.
pub fn local_search_seq(
    points: &[f32],
    dim: usize,
    facility_cost: f64,
    stride: usize,
    max_centers: usize,
) -> ClusterState {
    let n = points.len() / dim;
    let mut state = ClusterState::singleton(points, dim);
    let stride = stride.max(1);
    for candidate in (0..n).step_by(stride) {
        if state.centers.len() >= max_centers {
            break;
        }
        if state.centers.contains(&(candidate as u32)) {
            continue;
        }
        let (gain, switchers) = gain_range(points, dim, &state, candidate, 0..n);
        if gain > facility_cost {
            apply_open(points, dim, &mut state, candidate, &switchers);
        }
    }
    state
}

/// Result of streaming clustering over several blocks.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamResult {
    /// Number of centres opened in each block.
    pub centers_per_block: Vec<usize>,
    /// Final assignment cost of each block.
    pub cost_per_block: Vec<f64>,
}

impl StreamResult {
    /// Total cost over all blocks.
    pub fn total_cost(&self) -> f64 {
        self.cost_per_block.iter().sum()
    }
}

/// Sequential reference: stream the points through `local_search_seq` in
/// blocks of `block_size` points.
pub fn stream_cluster_seq(
    points: &[f32],
    dim: usize,
    block_size: usize,
    facility_cost: f64,
    stride: usize,
    max_centers: usize,
) -> StreamResult {
    assert!(block_size > 0, "block_size must be positive");
    let n = points.len() / dim;
    let mut centers_per_block = Vec::new();
    let mut cost_per_block = Vec::new();
    let mut start = 0;
    while start < n {
        let end = (start + block_size).min(n);
        let block = &points[start * dim..end * dim];
        let state = local_search_seq(block, dim, facility_cost, stride, max_centers);
        centers_per_block.push(state.centers.len());
        cost_per_block.push(state.total_cost());
        start = end;
    }
    StreamResult {
        centers_per_block,
        cost_per_block,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::clustered_points;
    use proptest::prelude::*;

    #[test]
    fn singleton_state_assigns_everything_to_point_zero() {
        let points = clustered_points(20, 2, 3, 1);
        let state = ClusterState::singleton(&points, 2);
        assert_eq!(state.centers, vec![0]);
        assert!(state.assignment.iter().all(|&a| a == 0));
        assert_eq!(state.cost[0], 0.0);
        assert!(state.total_cost() > 0.0);
    }

    #[test]
    fn gain_splits_compose() {
        let points = clustered_points(50, 2, 4, 3);
        let state = ClusterState::singleton(&points, 2);
        let candidate = 25;
        let (full_gain, full_switchers) = gain_range(&points, 2, &state, candidate, 0..50);
        let (g1, s1) = gain_range(&points, 2, &state, candidate, 0..20);
        let (g2, s2) = gain_range(&points, 2, &state, candidate, 20..50);
        assert!((full_gain - (g1 + g2)).abs() < 1e-6);
        let mut merged = s1;
        merged.extend(s2);
        assert_eq!(merged, full_switchers);
    }

    #[test]
    fn opening_a_center_reduces_cost() {
        let points = clustered_points(60, 3, 4, 5);
        let mut state = ClusterState::singleton(&points, 3);
        let before = state.total_cost();
        let candidate = 30;
        let (gain, switchers) = gain_range(&points, 3, &state, candidate, 0..60);
        assert!(gain > 0.0, "a far-away candidate must have positive gain");
        apply_open(&points, 3, &mut state, candidate, &switchers);
        let after = state.total_cost();
        assert!(after < before);
        assert!((before - after - gain).abs() < 1e-3);
        assert_eq!(state.centers, vec![0, 30]);
    }

    #[test]
    fn local_search_respects_max_centers() {
        let points = clustered_points(100, 2, 8, 11);
        let state = local_search_seq(&points, 2, 0.5, 3, 4);
        assert!(state.centers.len() <= 4);
        assert!(!state.centers.is_empty());
    }

    #[test]
    fn higher_facility_cost_opens_fewer_centers() {
        let points = clustered_points(120, 2, 6, 13);
        let cheap = local_search_seq(&points, 2, 0.1, 2, 64);
        let expensive = local_search_seq(&points, 2, 1e6, 2, 64);
        assert!(cheap.centers.len() >= expensive.centers.len());
        assert_eq!(
            expensive.centers.len(),
            1,
            "huge facility cost opens nothing"
        );
    }

    #[test]
    fn stream_processes_all_blocks() {
        let points = clustered_points(90, 2, 5, 17);
        let result = stream_cluster_seq(&points, 2, 40, 1.0, 2, 16);
        assert_eq!(result.centers_per_block.len(), 3);
        assert_eq!(result.cost_per_block.len(), 3);
        assert!(result.total_cost() >= 0.0);
        // Determinism.
        assert_eq!(result, stream_cluster_seq(&points, 2, 40, 1.0, 2, 16));
    }

    #[test]
    #[should_panic(expected = "block_size must be positive")]
    fn zero_block_size_panics() {
        let points = clustered_points(10, 2, 2, 0);
        let _ = stream_cluster_seq(&points, 2, 0, 1.0, 1, 4);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The gain of a candidate equals the actual cost reduction obtained
        /// by applying it.
        #[test]
        fn prop_gain_equals_cost_reduction(n in 5usize..60, seed in 0u64..30, cand_frac in 0.0f64..1.0) {
            let points = clustered_points(n, 2, 3, seed);
            let mut state = ClusterState::singleton(&points, 2);
            let candidate = ((n - 1) as f64 * cand_frac) as usize;
            let before = state.total_cost();
            let (gain, switchers) = gain_range(&points, 2, &state, candidate, 0..n);
            apply_open(&points, 2, &mut state, candidate, &switchers);
            let after = state.total_cost();
            prop_assert!((before - after - gain).abs() < 1e-2,
                "gain {gain} vs actual reduction {}", before - after);
            prop_assert!(gain >= 0.0);
        }

        /// Every point's recorded cost matches the distance to its assigned
        /// centre after a local search.
        #[test]
        fn prop_costs_consistent_after_search(n in 5usize..50, seed in 0u64..20) {
            let points = clustered_points(n, 2, 3, seed);
            let state = local_search_seq(&points, 2, 0.5, 2, 8);
            for p in 0..n {
                let c = state.assignment[p] as usize;
                let d = distance2(&points[p*2..p*2+2], &points[c*2..c*2+2]);
                prop_assert!((d - state.cost[p]).abs() < 1e-4);
            }
        }
    }
}
