//! `streamcluster`: online k-median clustering. The expensive part of every
//! candidate evaluation — the gain computation over all points — is the
//! parallel phase; opening a centre is a serial step between phases.

use std::sync::Arc;

use kernels::streamcluster::{apply_open, gain_range, ClusterState};
use kernels::workload::clustered_points;
use ompss::Runtime;
use threadkit::partition::chunk_ranges;

/// Parameters of the streamcluster benchmark.
#[derive(Debug, Clone, PartialEq)]
pub struct Params {
    /// Number of points in the block.
    pub points: usize,
    /// Dimensionality of each point.
    pub dim: usize,
    /// Facility opening cost.
    pub facility_cost: f64,
    /// Candidate stride (every `stride`-th point is considered as a centre).
    pub stride: usize,
    /// Maximum number of open centres.
    pub max_centers: usize,
    /// Points per work unit of the gain computation.
    pub chunk: usize,
    /// Seed of the synthetic points.
    pub seed: u64,
}

impl Params {
    /// Small instance for correctness tests.
    pub fn small() -> Self {
        Params {
            points: 300,
            dim: 3,
            facility_cost: 2.0,
            stride: 23,
            max_centers: 8,
            chunk: 50,
            seed: 31,
        }
    }

    /// The input points (flattened).
    pub fn input(&self) -> Vec<f32> {
        clustered_points(self.points, self.dim, self.max_centers.max(4), self.seed)
    }
}

fn state_checksum(state: &ClusterState) -> u64 {
    let mut bytes = Vec::new();
    for &a in &state.assignment {
        bytes.extend_from_slice(&a.to_le_bytes());
    }
    for &c in &state.cost {
        bytes.extend_from_slice(&c.to_bits().to_le_bytes());
    }
    for &c in &state.centers {
        bytes.extend_from_slice(&c.to_le_bytes());
    }
    kernels::image::fletcher64(&bytes)
}

/// The candidate centres every variant evaluates, in order.
fn candidates(p: &Params) -> Vec<usize> {
    (0..p.points).step_by(p.stride.max(1)).collect()
}

/// Sequential variant (chunked gain computation so the reduction order is
/// identical across variants).
pub fn run_seq(p: &Params) -> u64 {
    let points = p.input();
    let ranges = chunk_ranges(p.points, p.chunk);
    let mut state = ClusterState::singleton(&points, p.dim);
    for candidate in candidates(p) {
        if state.centers.len() >= p.max_centers || state.centers.contains(&(candidate as u32)) {
            continue;
        }
        let mut gain = 0f64;
        let mut switchers = Vec::new();
        for range in &ranges {
            let (g, s) = gain_range(&points, p.dim, &state, candidate, range.clone());
            gain += g;
            switchers.extend(s);
        }
        if gain > p.facility_cost {
            apply_open(&points, p.dim, &mut state, candidate, &switchers);
        }
    }
    state_checksum(&state)
}

/// Pthreads-style variant: every candidate's gain computation is forked over
/// the threads (each taking a set of chunks), joined, and the open decision
/// is made on the main thread.
pub fn run_pthreads(p: &Params, threads: usize) -> u64 {
    assert!(threads > 0, "need at least one thread");
    let points = Arc::new(p.input());
    let ranges = chunk_ranges(p.points, p.chunk);
    let mut state = ClusterState::singleton(&points, p.dim);
    for candidate in candidates(p) {
        if state.centers.len() >= p.max_centers || state.centers.contains(&(candidate as u32)) {
            continue;
        }
        let mut per_chunk: Vec<(f64, Vec<u32>)> = vec![(0.0, Vec::new()); ranges.len()];
        {
            let state = &state;
            let points = &points;
            let mut rest: &mut [(f64, Vec<u32>)] = &mut per_chunk;
            std::thread::scope(|scope| {
                for t in 0..threads {
                    let my_chunks = threadkit::partition::block_range(ranges.len(), threads, t);
                    let my_ranges: Vec<std::ops::Range<usize>> =
                        ranges[my_chunks.clone()].to_vec();
                    let (mine, tail) = rest.split_at_mut(my_chunks.len());
                    rest = tail;
                    let dim = p.dim;
                    scope.spawn(move || {
                        for (slot, range) in mine.iter_mut().zip(my_ranges) {
                            *slot = gain_range(points, dim, state, candidate, range);
                        }
                    });
                }
            });
        }
        let mut gain = 0f64;
        let mut switchers = Vec::new();
        for (g, s) in per_chunk {
            gain += g;
            switchers.extend(s);
        }
        if gain > p.facility_cost {
            apply_open(&points, p.dim, &mut state, candidate, &switchers);
        }
    }
    state_checksum(&state)
}

/// OmpSs-style variant: for every candidate, one gain task per point chunk
/// (reading the shared state) and one decision task (reading every gain slot
/// and updating the state). The dependences — gain tasks read `state`, the
/// decision task writes it — order the candidates without any explicit
/// barrier; a single `taskwait` at the end drains the graph.
pub fn run_ompss(p: &Params, rt: &Runtime) -> u64 {
    let points: Arc<Vec<f32>> = Arc::new(p.input());
    let ranges = chunk_ranges(p.points, p.chunk);
    let n_chunks = ranges.len();
    let state = rt.data(ClusterState::singleton(&points, p.dim));
    let gains = rt.partitioned(vec![(0f64, Vec::<u32>::new()); n_chunks], 1);

    for candidate in candidates(p) {
        // Gain tasks: read the state, write their own slot.
        for (i, range) in ranges.iter().enumerate() {
            let slot = gains.chunk(i);
            let state = state.clone();
            let points = points.clone();
            let range = range.clone();
            let dim = p.dim;
            rt.task()
                .name("streamcluster_gain")
                .input(&state)
                .output(&slot)
                .spawn(move |ctx| {
                    let st = ctx.read(&state);
                    let mut slot = ctx.write_chunk(&slot);
                    slot[0] = gain_range(&points, dim, &st, candidate, range);
                });
        }
        // Decision task: read all gain slots, update the state.
        {
            let all_gains = gains.whole();
            let state = state.clone();
            let points = points.clone();
            let dim = p.dim;
            let facility_cost = p.facility_cost;
            let max_centers = p.max_centers;
            rt.task()
                .name("streamcluster_open")
                .input(&all_gains)
                .inout(&state)
                .spawn(move |ctx| {
                    let mut st = ctx.write(&state);
                    if st.centers.len() >= max_centers
                        || st.centers.contains(&(candidate as u32))
                    {
                        return;
                    }
                    let parts = ctx.read_whole(&all_gains);
                    let mut gain = 0f64;
                    let mut switchers = Vec::new();
                    for (g, s) in parts.iter() {
                        gain += g;
                        switchers.extend_from_slice(s);
                    }
                    if gain > facility_cost {
                        apply_open(&points, dim, &mut st, candidate, &switchers);
                    }
                });
        }
    }
    rt.taskwait();
    let final_state = rt.fetch(&state);
    state_checksum(&final_state)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ompss::RuntimeConfig;

    #[test]
    fn all_variants_agree() {
        let p = Params::small();
        let seq = run_seq(&p);
        assert_eq!(run_pthreads(&p, 1), seq);
        assert_eq!(run_pthreads(&p, 3), seq);
        let rt = Runtime::new(RuntimeConfig::default().with_workers(2));
        assert_eq!(run_ompss(&p, &rt), seq);
    }

    #[test]
    fn opens_more_than_the_initial_center() {
        // Sanity: the chosen parameters must actually exercise the open path.
        let p = Params::small();
        let points = p.input();
        let state = kernels::streamcluster::local_search_seq(
            &points,
            p.dim,
            p.facility_cost,
            p.stride,
            p.max_centers,
        );
        assert!(state.centers.len() > 1);
    }
}
