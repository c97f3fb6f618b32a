//! `kmeans`: Lloyd's algorithm — a parallel assign phase and a reduction per
//! iteration, separated by barriers.

use std::sync::Arc;

use kernels::kmeans::{assign_range, init_centroids, partial_sums_range, reduce_centroids};
use kernels::workload::clustered_points;
use ompss::Runtime;
use threadkit::partition::block_range;

/// Parameters of the kmeans benchmark.
#[derive(Debug, Clone, PartialEq)]
pub struct Params {
    /// Number of points.
    pub points: usize,
    /// Dimensionality of each point.
    pub dim: usize,
    /// Number of clusters.
    pub k: usize,
    /// Number of Lloyd iterations.
    pub iterations: usize,
    /// Points per work unit.
    pub chunk: usize,
    /// Seed of the synthetic points.
    pub seed: u64,
}

impl Params {
    /// Small instance for correctness tests. Sized so each task does a few
    /// microseconds of real work: the previous 240-point/40-chunk instance
    /// spawned 6 ~1µs tasks per iteration, so per-task runtime overhead —
    /// not the kernel — dominated the OmpSs timing (the "over-fine
    /// chunking" half of the recorded speedup anomaly). Four chunks keeps a
    /// genuinely parallel assign phase for the multi-thread correctness
    /// tests; all three variants share the decomposition, so checksums stay
    /// comparable.
    pub fn small() -> Self {
        Params {
            points: 960,
            dim: 3,
            k: 4,
            iterations: 5,
            chunk: 240,
            seed: 21,
        }
    }

    /// The input points (flattened).
    pub fn input(&self) -> Vec<f32> {
        clustered_points(self.points, self.dim, self.k, self.seed)
    }
}

fn centroids_checksum(centroids: &[f32], labels: &[u32]) -> u64 {
    let mut bytes = Vec::with_capacity(centroids.len() * 4 + labels.len() * 4);
    for c in centroids {
        bytes.extend_from_slice(&c.to_bits().to_le_bytes());
    }
    for l in labels {
        bytes.extend_from_slice(&l.to_le_bytes());
    }
    kernels::image::fletcher64(&bytes)
}

/// The chunk ranges all three variants use for the partial-sum reduction.
/// Keeping the decomposition identical makes the floating-point reduction
/// order — and therefore the checksums — bit-identical across variants.
fn chunk_ranges(p: &Params) -> Vec<std::ops::Range<usize>> {
    threadkit::partition::chunk_ranges(p.points, p.chunk)
}

/// Sequential variant (runs exactly `iterations` Lloyd steps, matching the
/// parallel variants' fixed iteration count and reduction order).
pub fn run_seq(p: &Params) -> u64 {
    let points = p.input();
    let ranges = chunk_ranges(p);
    let mut centroids = init_centroids(&points, p.dim, p.k);
    let mut labels = vec![0u32; p.points];
    for _ in 0..p.iterations {
        let mut partials = Vec::with_capacity(ranges.len());
        for range in &ranges {
            assign_range(
                &points,
                &centroids,
                p.dim,
                range.clone(),
                &mut labels[range.clone()],
            );
            partials.push(partial_sums_range(
                &points,
                &labels[range.clone()],
                p.dim,
                p.k,
                range.clone(),
            ));
        }
        centroids = reduce_centroids(&partials, &centroids, p.dim, p.k);
    }
    centroids_checksum(&centroids, &labels)
}

/// Pthreads-style variant: every iteration forks the assign phase over the
/// threads (block partition of the chunks), joins, and reduces the partial
/// sums on the main thread — the fork/join + barrier structure of the
/// original code.
pub fn run_pthreads(p: &Params, threads: usize) -> u64 {
    assert!(threads > 0, "need at least one thread");
    let points = Arc::new(p.input());
    let ranges = chunk_ranges(p);
    let n_chunks = ranges.len();
    let mut centroids = init_centroids(&points, p.dim, p.k);
    let mut labels = vec![0u32; p.points];
    let mut partials: Vec<(Vec<f64>, Vec<u64>)> = vec![(Vec::new(), Vec::new()); n_chunks];
    for _ in 0..p.iterations {
        {
            // Block-partition the chunks over the threads; hand each thread
            // the label and partial slots of its chunks.
            let mut label_rest: &mut [u32] = &mut labels;
            let mut partial_rest: &mut [(Vec<f64>, Vec<u64>)] = &mut partials;
            let mut next_chunk = 0usize;
            std::thread::scope(|scope| {
                for t in 0..threads {
                    let my_chunks = block_range(n_chunks, threads, t);
                    let my_ranges: Vec<std::ops::Range<usize>> = ranges[my_chunks.clone()].to_vec();
                    let my_points: usize = my_ranges.iter().map(|r| r.len()).sum();
                    let (my_labels, lrest) = label_rest.split_at_mut(my_points);
                    label_rest = lrest;
                    let (my_partials, prest) = partial_rest.split_at_mut(my_chunks.len());
                    partial_rest = prest;
                    debug_assert_eq!(my_chunks.start, next_chunk);
                    next_chunk += my_chunks.len();
                    let points = points.clone();
                    let centroids = centroids.clone();
                    let dim = p.dim;
                    let k = p.k;
                    scope.spawn(move || {
                        let mut offset = 0usize;
                        for (ci, range) in my_ranges.iter().enumerate() {
                            let lab = &mut my_labels[offset..offset + range.len()];
                            offset += range.len();
                            assign_range(&points, &centroids, dim, range.clone(), lab);
                            my_partials[ci] =
                                partial_sums_range(&points, lab, dim, k, range.clone());
                        }
                    });
                }
            });
        }
        centroids = reduce_centroids(&partials, &centroids, p.dim, p.k);
    }
    centroids_checksum(&centroids, &labels)
}

/// OmpSs-style variant: one task per point chunk computes labels and partial
/// sums; a reduction task (depending on all the partials through its
/// `input` clauses) produces the new centroids. Iterations are separated by
/// dataflow alone — each assign task's `input(centroids)` takes a RAW edge
/// on the previous reduction's `inout(centroids)` — so the main thread
/// never blocks on a per-iteration barrier (a single `taskwait` before the
/// fetch suffices). The earlier per-iteration `taskwait` made the paper's
/// spin-polling barrier part of every iteration's critical path, which on a
/// single-core host could stall each iteration for a scheduling quantum.
pub fn run_ompss(p: &Params, rt: &Runtime) -> u64 {
    let points: Arc<Vec<f32>> = Arc::new(p.input());
    let n_chunks = p.points.div_ceil(p.chunk);
    let labels = rt.partitioned(vec![0u32; p.points], p.chunk);
    // One partial-sum slot per chunk, plus a handle for the shared centroids.
    let partials = rt.partitioned(vec![(Vec::<f64>::new(), Vec::<u64>::new()); n_chunks], 1);
    let centroids = rt.data(init_centroids(&points, p.dim, p.k));

    for _ in 0..p.iterations {
        for i in 0..n_chunks {
            let label_chunk = labels.chunk(i);
            let partial_chunk = partials.chunk(i);
            let centroids = centroids.clone();
            let points = points.clone();
            let dim = p.dim;
            let k = p.k;
            let chunk = p.chunk;
            let total = p.points;
            rt.task()
                .name("kmeans_assign")
                .input(&centroids)
                .output(&label_chunk)
                .output(&partial_chunk)
                .spawn(move |ctx| {
                    let cent = ctx.read(&centroids);
                    let mut lab = ctx.write_chunk(&label_chunk);
                    let mut part = ctx.write_chunk(&partial_chunk);
                    let range = i * chunk..((i + 1) * chunk).min(total);
                    assign_range(&points, &cent, dim, range.clone(), &mut lab);
                    part[0] = partial_sums_range(&points, &lab, dim, k, range);
                });
        }
        // Reduction task: reads every partial slot, updates the centroids.
        {
            let all_partials = partials.whole();
            let centroids = centroids.clone();
            let dim = p.dim;
            let k = p.k;
            rt.task()
                .name("kmeans_reduce")
                .input(&all_partials)
                .inout(&centroids)
                .spawn(move |ctx| {
                    let parts = ctx.read_whole(&all_partials);
                    let mut cent = ctx.write(&centroids);
                    let new = reduce_centroids(&parts, &cent, dim, k);
                    *cent = new;
                });
        }
    }
    rt.taskwait();
    let final_centroids = rt.fetch(&centroids);
    let final_labels = rt.into_vec(labels);
    centroids_checksum(&final_centroids, &final_labels)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kernels::kmeans::kmeans_seq;
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
    fn fixed_iterations_match_reference_kernel() {
        // With enough iterations to converge, the fixed-iteration driver
        // reaches the same labels as the library's converging driver.
        let p = Params {
            iterations: 30,
            ..Params::small()
        };
        let points = p.input();
        let reference = kmeans_seq(&points, p.dim, p.k, 30);
        let mut centroids = init_centroids(&points, p.dim, p.k);
        let mut labels = vec![0u32; p.points];
        for _ in 0..p.iterations {
            assign_range(&points, &centroids, p.dim, 0..p.points, &mut labels);
            let partial = partial_sums_range(&points, &labels, p.dim, p.k, 0..p.points);
            centroids = reduce_centroids(&[partial], &centroids, p.dim, p.k);
        }
        assert_eq!(labels, reference.labels);
    }
}
