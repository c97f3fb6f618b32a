//! `bodytrack`: an annealed particle filter. Per frame and annealing layer,
//! the particle likelihood evaluation is data parallel over particle ranges;
//! resampling is a serial step between layers.

use std::sync::Arc;

use kernels::bodytrack::{
    estimate_pose, evaluate_weights_range, init_particles, resample, FilterConfig, Particle,
};
use kernels::workload::body_observations;
use ompss::Runtime;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use threadkit::partition::chunk_ranges;

/// Parameters of the bodytrack benchmark.
#[derive(Debug, Clone, PartialEq)]
pub struct Params {
    /// Particle-filter configuration.
    pub filter: FilterConfig,
    /// Number of frames to track.
    pub frames: usize,
    /// Particles per work unit.
    pub chunk: usize,
    /// Seed of the observations and of the filter's RNG.
    pub seed: u64,
}

impl Params {
    /// Small instance for correctness tests.
    pub fn small() -> Self {
        Params {
            filter: FilterConfig {
                particles: 96,
                joints: 5,
                layers: 2,
                base_noise: 0.1,
                beta: 30.0,
            },
            frames: 4,
            chunk: 24,
            seed: 13,
        }
    }

    /// The per-frame observations.
    pub fn observations(&self) -> Vec<Vec<f32>> {
        body_observations(self.frames, self.filter.joints, self.seed)
    }
}

fn poses_checksum(poses: &[Vec<f32>]) -> u64 {
    let mut bytes = Vec::new();
    for pose in poses {
        for v in pose {
            bytes.extend_from_slice(&v.to_bits().to_le_bytes());
        }
    }
    kernels::image::fletcher64(&bytes)
}

/// The tracking loop shared by the sequential and Pthreads variants; the
/// `evaluate` closure fills the weights for the particle set (the only
/// parallel part).
fn track_with<E>(p: &Params, mut evaluate: E) -> Vec<Vec<f32>>
where
    E: FnMut(&[Particle], &[f32], &mut [f32]),
{
    let cfg = &p.filter;
    let observations = p.observations();
    let mut rng = ChaCha8Rng::seed_from_u64(p.seed);
    let mut particles = init_particles(cfg, &mut rng);
    let mut poses = Vec::with_capacity(observations.len());
    let mut weights = vec![0f32; cfg.particles];
    for obs in &observations {
        for layer in 0..cfg.layers {
            let noise = cfg.base_noise / (1 << layer) as f32;
            evaluate(&particles, obs, &mut weights);
            particles = resample(&particles, &weights, noise, &mut rng);
        }
        evaluate(&particles, obs, &mut weights);
        poses.push(estimate_pose(&particles, &weights));
    }
    poses
}

/// Sequential variant.
pub fn run_seq(p: &Params) -> u64 {
    let beta = p.filter.beta;
    let n = p.filter.particles;
    let poses = track_with(p, |particles, obs, weights| {
        evaluate_weights_range(particles, obs, beta, 0..n, weights);
    });
    poses_checksum(&poses)
}

/// Pthreads-style variant: the weight evaluation is forked over the threads
/// (block partition of the particle chunks); resampling stays on the main
/// thread, exactly as in the sequential code.
pub fn run_pthreads(p: &Params, threads: usize) -> u64 {
    assert!(threads > 0, "need at least one thread");
    let beta = p.filter.beta;
    let ranges = chunk_ranges(p.filter.particles, p.chunk);
    let poses = track_with(p, |particles, obs, weights| {
        let mut rest: &mut [f32] = weights;
        let mut offset = 0usize;
        std::thread::scope(|scope| {
            for t in 0..threads {
                let my_chunks = threadkit::partition::block_range(ranges.len(), threads, t);
                let my_ranges: Vec<std::ops::Range<usize>> = ranges[my_chunks].to_vec();
                let my_len: usize = my_ranges.iter().map(|r| r.len()).sum();
                let (mine, tail) = rest.split_at_mut(my_len);
                rest = tail;
                debug_assert!(my_ranges.first().is_none_or(|r| r.start == offset));
                offset += my_len;
                scope.spawn(move || {
                    let mut local = 0usize;
                    for range in my_ranges {
                        let len = range.len();
                        evaluate_weights_range(
                            particles,
                            obs,
                            beta,
                            range,
                            &mut mine[local..local + len],
                        );
                        local += len;
                    }
                });
            }
        });
    });
    poses_checksum(&poses)
}

/// OmpSs-style variant: per layer, one task per particle chunk evaluates the
/// weights (reading the particle set, writing its weight chunk) and one
/// resampling task (reading all weights, updating the particle set). The
/// frame loop ends with a `taskwait`.
///
/// The weight vector is a **versioned** partition: each layer's per-chunk
/// `output` renames its chunk, so the next layer's weight writes never
/// WAR-serialise behind the previous resampling/pose read of the whole
/// array — the runtime provides the double-buffer the programmer would
/// otherwise write by hand.
pub fn run_ompss(p: &Params, rt: &Runtime) -> u64 {
    let cfg = p.filter.clone();
    let observations: Arc<Vec<Vec<f32>>> = Arc::new(p.observations());
    let ranges = chunk_ranges(cfg.particles, p.chunk);

    let mut rng = ChaCha8Rng::seed_from_u64(p.seed);
    let particles = rt.data(init_particles(&cfg, &mut rng));
    let weights = rt.versioned_partitioned(vec![0f32; cfg.particles], p.chunk);
    let rng_handle = rt.data(rng);
    let poses = rt.data(Vec::<Vec<f32>>::new());

    for frame in 0..p.frames {
        for layer in 0..=cfg.layers {
            // Weight evaluation tasks.
            for (i, range) in ranges.iter().enumerate() {
                let particles = particles.clone();
                let weight_chunk = weights.chunk(i);
                let observations = observations.clone();
                let range = range.clone();
                let beta = cfg.beta;
                rt.task()
                    .name("bodytrack_weights")
                    .input(&particles)
                    .output(&weight_chunk)
                    .spawn(move |ctx| {
                        let parts = ctx.read(&particles);
                        let mut w = ctx.write_chunk(&weight_chunk);
                        evaluate_weights_range(&parts, &observations[frame], beta, range, &mut w);
                    });
            }
            if layer < cfg.layers {
                // Resampling task (serial, like the original).
                let particles = particles.clone();
                let all_weights = weights.whole();
                let rng_handle = rng_handle.clone();
                let noise = cfg.base_noise / (1 << layer) as f32;
                rt.task()
                    .name("bodytrack_resample")
                    .input(&all_weights)
                    .inout(&particles)
                    .inout(&rng_handle)
                    .spawn(move |ctx| {
                        let w = ctx.gather_whole(&all_weights);
                        let mut parts = ctx.write(&particles);
                        let mut rng = ctx.write(&rng_handle);
                        *parts = resample(&parts, &w, noise, &mut rng);
                    });
            } else {
                // Pose-estimation task for this frame.
                let particles = particles.clone();
                let all_weights = weights.whole();
                let poses = poses.clone();
                rt.task()
                    .name("bodytrack_pose")
                    .input(&all_weights)
                    .input(&particles)
                    .inout(&poses)
                    .spawn(move |ctx| {
                        let w = ctx.gather_whole(&all_weights);
                        let parts = ctx.read(&particles);
                        let mut poses = ctx.write(&poses);
                        poses.push(estimate_pose(&parts, &w));
                    });
            }
        }
        rt.taskwait();
    }
    let poses = rt.fetch(&poses);
    poses_checksum(&poses)
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
    fn matches_the_reference_tracker_structure() {
        // The benchmark's sequential driver follows the same layer structure
        // as the kernels crate's reference tracker (same number of poses).
        let p = Params::small();
        let obs = p.observations();
        let reference = kernels::bodytrack::track_seq(&p.filter, &obs, p.seed);
        assert_eq!(reference.poses.len(), p.frames);
    }
}
