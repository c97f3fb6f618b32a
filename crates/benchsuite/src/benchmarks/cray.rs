//! `c-ray`: sphere ray tracing, one work unit per scanline.

use std::sync::Arc;

use kernels::cray::{render_scanline, Scene};
use kernels::image::ImageRgb;
use ompss::Runtime;

/// Parameters of the c-ray benchmark.
#[derive(Debug, Clone, PartialEq)]
pub struct Params {
    /// Image width in pixels.
    pub width: usize,
    /// Image height in pixels (= number of scanline work units).
    pub height: usize,
    /// Number of spheres in the scene.
    pub spheres: usize,
}

impl Params {
    /// Small instance for correctness tests.
    pub fn small() -> Self {
        Params {
            width: 48,
            height: 32,
            spheres: 6,
        }
    }

    fn scene(&self) -> Scene {
        Scene::demo(self.spheres)
    }
}

/// Sequential variant.
pub fn run_seq(p: &Params) -> u64 {
    let scene = p.scene();
    let mut img = ImageRgb::new(p.width, p.height);
    for y in 0..p.height {
        let range = img.row_range(y);
        render_scanline(&scene, p.width, p.height, y, &mut img.data[range]);
    }
    img.checksum()
}

/// Pthreads-style variant: scanlines distributed cyclically over a fixed set
/// of threads (static partitioning, no load balancing).
pub fn run_pthreads(p: &Params, threads: usize) -> u64 {
    assert!(threads > 0, "need at least one thread");
    let scene = p.scene();
    let mut img = ImageRgb::new(p.width, p.height);
    let width = p.width;
    let height = p.height;
    {
        // Hand out disjoint mutable rows to the threads, cyclically.
        let rows: Vec<(usize, &mut [u8])> = img
            .data
            .chunks_mut(3 * width)
            .enumerate()
            .collect();
        let mut per_thread: Vec<Vec<(usize, &mut [u8])>> =
            (0..threads).map(|_| Vec::new()).collect();
        for (y, row) in rows {
            per_thread[y % threads].push((y, row));
        }
        let scene = &scene;
        std::thread::scope(|scope| {
            for mine in per_thread {
                scope.spawn(move || {
                    for (y, row) in mine {
                        render_scanline(scene, width, height, y, row);
                    }
                });
            }
        });
    }
    img.checksum()
}

/// OmpSs-style variant: one task per scanline, each declaring an `output`
/// access on its row of the image; the runtime balances them dynamically.
pub fn run_ompss(p: &Params, rt: &Runtime) -> u64 {
    let scene = Arc::new(p.scene());
    let width = p.width;
    let height = p.height;
    let image = rt.partitioned(vec![0u8; 3 * width * height], 3 * width);
    for y in 0..height {
        let chunk = image.chunk(y);
        let scene = scene.clone();
        rt.task()
            .name("cray_scanline")
            .output(&chunk)
            .spawn(move |ctx| {
                let mut row = ctx.write_chunk(&chunk);
                render_scanline(&scene, width, height, y, &mut row);
            });
    }
    rt.taskwait();
    let data = rt.into_vec(image);
    ImageRgb::from_data(width, height, data).checksum()
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
    fn more_threads_than_scanlines_is_fine() {
        let p = Params {
            width: 16,
            height: 4,
            spheres: 2,
        };
        assert_eq!(run_pthreads(&p, 9), run_seq(&p));
    }
}
