//! Deterministic synthetic workload generators.
//!
//! Every benchmark input is generated from a seed with a counter-based or
//! ChaCha PRNG so that all three variants (sequential, Pthreads, OmpSs) of a
//! benchmark — and repeated runs of the harness — operate on bit-identical
//! inputs.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::image::ImageRgb;

/// Deterministic RNG for workload generation.
pub fn rng(seed: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(seed)
}

/// A synthetic RGB test image: smooth gradients plus pseudo-random texture,
/// deterministic in `(width, height, seed)`.
pub fn synthetic_rgb_image(width: usize, height: usize, seed: u64) -> ImageRgb {
    let mut img = ImageRgb::new(width, height);
    let mut r = rng(seed);
    for y in 0..height {
        for x in 0..width {
            let gx = if width > 1 {
                (255 * x / (width - 1).max(1)) as u8
            } else {
                0
            };
            let gy = if height > 1 {
                (255 * y / (height - 1).max(1)) as u8
            } else {
                0
            };
            let noise: u8 = r.gen_range(0..32);
            img.set(
                x,
                y,
                [
                    gx.wrapping_add(noise),
                    gy.wrapping_add(noise / 2),
                    ((gx as u16 + gy as u16) / 2) as u8,
                ],
            );
        }
    }
    img
}

/// Buffers for the md5 benchmark: `count` buffers of `size` pseudo-random
/// bytes each.
pub fn md5_buffers(count: usize, size: usize, seed: u64) -> Vec<Vec<u8>> {
    let mut r = rng(seed);
    (0..count)
        .map(|_| (0..size).map(|_| r.gen()).collect())
        .collect()
}

/// Points for the k-means / streamcluster benchmarks: `n` points of
/// dimension `dim`, drawn from `k_hint` Gaussian-ish clusters so the
/// clustering problem is well-posed.
pub fn clustered_points(n: usize, dim: usize, k_hint: usize, seed: u64) -> Vec<f32> {
    let mut r = rng(seed);
    let centers: Vec<Vec<f32>> = (0..k_hint.max(1))
        .map(|_| (0..dim).map(|_| r.gen_range(-10.0..10.0)).collect())
        .collect();
    let mut out = Vec::with_capacity(n * dim);
    for i in 0..n {
        let c = &centers[i % centers.len()];
        for &center in c.iter().take(dim) {
            // Sum of three uniforms approximates a Gaussian well enough.
            let noise: f32 = (0..3).map(|_| r.gen_range(-0.5f32..0.5)).sum();
            out.push(center + noise);
        }
    }
    out
}

/// Observation sequence for the bodytrack benchmark: per-frame noisy joint
/// angle observations of a synthetic articulated body.
pub fn body_observations(frames: usize, joints: usize, seed: u64) -> Vec<Vec<f32>> {
    let mut r = rng(seed);
    let mut truth: Vec<f32> = (0..joints).map(|_| r.gen_range(-1.0f32..1.0)).collect();
    let mut out = Vec::with_capacity(frames);
    for _ in 0..frames {
        for t in truth.iter_mut() {
            *t += r.gen_range(-0.08f32..0.08);
            *t = t.clamp(-1.5, 1.5);
        }
        out.push(
            truth
                .iter()
                .map(|&t| t + r.gen_range(-0.05f32..0.05))
                .collect(),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn image_is_deterministic_in_seed() {
        let a = synthetic_rgb_image(17, 9, 3);
        let b = synthetic_rgb_image(17, 9, 3);
        let c = synthetic_rgb_image(17, 9, 4);
        assert_eq!(a.data, b.data);
        assert_ne!(a.data, c.data);
    }

    #[test]
    fn image_handles_degenerate_sizes() {
        let img = synthetic_rgb_image(1, 1, 0);
        assert_eq!(img.data.len(), 3);
    }

    #[test]
    fn md5_buffers_shape_and_determinism() {
        let a = md5_buffers(5, 100, 7);
        let b = md5_buffers(5, 100, 7);
        assert_eq!(a.len(), 5);
        assert!(a.iter().all(|buf| buf.len() == 100));
        assert_eq!(a, b);
        assert_ne!(a, md5_buffers(5, 100, 8));
    }

    #[test]
    fn clustered_points_shape() {
        let pts = clustered_points(100, 3, 4, 1);
        assert_eq!(pts.len(), 300);
        assert_eq!(pts, clustered_points(100, 3, 4, 1));
        // Values stay in a sane range.
        assert!(pts.iter().all(|v| v.abs() < 12.0));
    }

    #[test]
    fn body_observations_shape_and_smoothness() {
        let obs = body_observations(20, 6, 2);
        assert_eq!(obs.len(), 20);
        assert!(obs.iter().all(|frame| frame.len() == 6));
        // Consecutive frames stay close (it is a random walk with small
        // steps).
        for w in obs.windows(2) {
            for (a, b) in w[0].iter().zip(w[1].iter()) {
                assert!((a - b).abs() < 0.5);
            }
        }
    }
}
