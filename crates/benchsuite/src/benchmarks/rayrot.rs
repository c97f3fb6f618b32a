//! `ray-rot`: the output of the c-ray kernel is the input of the rotate
//! kernel (a fused producer→consumer workload).
//!
//! In the OmpSs variant the rotate tasks simply declare an `input` access on
//! the rendered image and an `output` access on their band of the rotated
//! image; the runtime chains them behind the render tasks without any
//! explicit barrier. The Pthreads variant renders everything, joins, then
//! rotates everything — the fork/join structure manual threading naturally
//! uses.

use std::sync::Arc;

use kernels::cray::{render_scanline, Scene};
use kernels::image::{ImageRgb, ImageRgbView};
use kernels::rotate::{rotate_rows, rotate_rows_view};
use ompss::Runtime;
use threadkit::partition::block_range;

/// Parameters of the ray-rot benchmark.
#[derive(Debug, Clone, PartialEq)]
pub struct Params {
    /// Image width in pixels.
    pub width: usize,
    /// Image height in pixels.
    pub height: usize,
    /// Number of spheres in the rendered scene.
    pub spheres: usize,
    /// Rotation angle in radians.
    pub angle: f64,
    /// Output rows per rotate work unit.
    pub band_rows: usize,
}

impl Params {
    /// Small instance for correctness tests.
    pub fn small() -> Self {
        Params {
            width: 48,
            height: 32,
            spheres: 5,
            angle: 0.6,
            band_rows: 4,
        }
    }

    /// Larger instance for timing runs.
    pub fn large() -> Self {
        Params {
            width: 256,
            height: 192,
            spheres: 20,
            angle: 0.6,
            band_rows: 8,
        }
    }
}

/// Sequential variant.
pub fn run_seq(p: &Params) -> u64 {
    let scene = Scene::demo(p.spheres);
    let rendered = kernels::cray::render(&scene, p.width, p.height);
    let rotated = kernels::rotate::rotate(&rendered, p.angle);
    rotated.checksum()
}

/// Pthreads-style variant: render phase (cyclic scanlines), implicit join,
/// rotate phase (block bands).
pub fn run_pthreads(p: &Params, threads: usize) -> u64 {
    assert!(threads > 0, "need at least one thread");
    let scene = Scene::demo(p.spheres);
    let (width, height) = (p.width, p.height);
    // Phase 1: render.
    let mut rendered = ImageRgb::new(width, height);
    {
        let rows: Vec<(usize, &mut [u8])> =
            rendered.data.chunks_mut(3 * width).enumerate().collect();
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
    // Phase 2: rotate.
    let mut rotated = vec![0u8; 3 * width * height];
    {
        let row_bytes = 3 * width;
        let mut rest: &mut [u8] = &mut rotated;
        let mut bands = Vec::new();
        for t in 0..threads {
            let rows = block_range(height, threads, t);
            let (band, tail) = rest.split_at_mut(rows.len() * row_bytes);
            rest = tail;
            bands.push((rows, band));
        }
        let src = &rendered;
        let angle = p.angle;
        std::thread::scope(|scope| {
            for (rows, band) in bands {
                scope.spawn(move || {
                    if !rows.is_empty() {
                        rotate_rows(src, angle, rows, band);
                    }
                });
            }
        });
    }
    ImageRgb::from_data(width, height, rotated).checksum()
}

/// OmpSs-style variant: render tasks produce the image scanline by scanline;
/// rotate tasks consume the whole rendered image and produce their own band.
/// No barrier separates the two kernels — the dependences do.
pub fn run_ompss(p: &Params, rt: &Runtime) -> u64 {
    let scene = Arc::new(Scene::demo(p.spheres));
    let (width, height) = (p.width, p.height);
    let rendered = rt.partitioned(vec![0u8; 3 * width * height], 3 * width);
    let rotated = rt.partitioned(vec![0u8; 3 * width * height], 3 * width * p.band_rows);

    // Producer tasks: one per scanline.
    for y in 0..height {
        let chunk = rendered.chunk(y);
        let scene = scene.clone();
        rt.task()
            .name("rayrot_render")
            .output(&chunk)
            .spawn(move |ctx| {
                let mut row = ctx.write_chunk(&chunk);
                render_scanline(&scene, width, height, y, &mut row);
            });
    }
    // Consumer tasks: one per output band, reading the whole rendered image.
    let whole_rendered = rendered.whole();
    let band_rows = p.band_rows;
    let angle = p.angle;
    for (i, out_chunk) in rotated.chunk_handles().enumerate() {
        let whole = whole_rendered.clone();
        rt.task()
            .name("rayrot_rotate")
            .input(&whole)
            .output(&out_chunk)
            .spawn(move |ctx| {
                // Read the rendered image in place, as the Pthreads variant
                // does: the guard stays valid for the whole body.
                let src_data = ctx.read_whole(&whole);
                let src = ImageRgbView::new(width, height, &src_data);
                let mut band = ctx.write_chunk(&out_chunk);
                let start = i * band_rows;
                let end = (start + band_rows).min(height);
                rotate_rows_view(src, angle, start..end, &mut band);
            });
    }
    rt.taskwait();
    drop(whole_rendered);
    let data = rt.into_vec(rotated);
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
}
