//! `rot-cc`: the output of the rotate kernel feeds the RGB→CMYK colour
//! conversion. The conversion of an output band only needs the matching
//! rotated band, so the OmpSs variant chains band-to-band tasks.

use kernels::image::{ImageCmyk, ImageRgb, ImageRgbView};
use kernels::rgbcmy::{convert_rows, convert_rows_view};
use kernels::rotate::rotate_rows;
use kernels::workload::synthetic_rgb_image;
use ompss::Runtime;
use threadkit::partition::block_range;

/// Parameters of the rot-cc benchmark.
#[derive(Debug, Clone, PartialEq)]
pub struct Params {
    /// Image width in pixels.
    pub width: usize,
    /// Image height in pixels.
    pub height: usize,
    /// Rotation angle in radians.
    pub angle: f64,
    /// Rows per band (work unit of both kernels).
    pub band_rows: usize,
    /// Seed of the synthetic input image.
    pub seed: u64,
}

impl Params {
    /// Small instance for correctness tests.
    pub fn small() -> Self {
        Params {
            width: 56,
            height: 40,
            angle: 0.3,
            band_rows: 5,
            seed: 9,
        }
    }

    /// Larger instance for timing runs.
    pub fn large() -> Self {
        Params {
            width: 512,
            height: 384,
            angle: 0.3,
            band_rows: 16,
            seed: 9,
        }
    }

    /// The synthetic source image.
    pub fn input(&self) -> ImageRgb {
        synthetic_rgb_image(self.width, self.height, self.seed)
    }
}

/// Sequential variant.
pub fn run_seq(p: &Params) -> u64 {
    let src = p.input();
    let rotated = kernels::rotate::rotate(&src, p.angle);
    let cmyk = kernels::rgbcmy::convert(&rotated);
    cmyk.checksum()
}

/// Pthreads-style variant: rotate phase, join, convert phase.
pub fn run_pthreads(p: &Params, threads: usize) -> u64 {
    assert!(threads > 0, "need at least one thread");
    let src = p.input();
    let (width, height) = (p.width, p.height);

    let mut rotated = vec![0u8; 3 * width * height];
    {
        let mut rest: &mut [u8] = &mut rotated;
        let mut bands = Vec::new();
        for t in 0..threads {
            let rows = block_range(height, threads, t);
            let (band, tail) = rest.split_at_mut(rows.len() * 3 * width);
            rest = tail;
            bands.push((rows, band));
        }
        let src = &src;
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
    let rotated = ImageRgb::from_data(width, height, rotated);

    let mut cmyk = vec![0u8; 4 * width * height];
    {
        let mut rest: &mut [u8] = &mut cmyk;
        let mut bands = Vec::new();
        for t in 0..threads {
            let rows = block_range(height, threads, t);
            let (band, tail) = rest.split_at_mut(rows.len() * 4 * width);
            rest = tail;
            bands.push((rows, band));
        }
        let rotated = &rotated;
        std::thread::scope(|scope| {
            for (rows, band) in bands {
                scope.spawn(move || {
                    if !rows.is_empty() {
                        convert_rows(rotated, rows, band);
                    }
                });
            }
        });
    }
    ImageCmyk {
        width,
        height,
        data: cmyk,
    }
    .checksum()
}

/// OmpSs-style variant: rotate task `i` produces band `i` of the rotated
/// image; conversion task `i` consumes exactly that band. The band-to-band
/// dependences let conversions start while other bands are still rotating.
pub fn run_ompss(p: &Params, rt: &Runtime) -> u64 {
    let (width, height) = (p.width, p.height);
    let src = rt.data(p.input());
    let rotated = rt.partitioned(vec![0u8; 3 * width * height], 3 * width * p.band_rows);
    let cmyk = rt.partitioned(vec![0u8; 4 * width * height], 4 * width * p.band_rows);
    let band_rows = p.band_rows;
    let angle = p.angle;
    let n_bands = rotated.num_chunks();

    for i in 0..n_bands {
        let rot_chunk = rotated.chunk(i);
        let src = src.clone();
        rt.task()
            .name("rotcc_rotate")
            .input(&src)
            .output(&rot_chunk)
            .spawn(move |ctx| {
                let src = ctx.read(&src);
                let mut band = ctx.write_chunk(&rot_chunk);
                let start = i * band_rows;
                let end = (start + band_rows).min(height);
                rotate_rows(&src, angle, start..end, &mut band);
            });
    }
    for i in 0..n_bands {
        let rot_chunk = rotated.chunk(i);
        let cmyk_chunk = cmyk.chunk(i);
        rt.task()
            .name("rotcc_convert")
            .input(&rot_chunk)
            .output(&cmyk_chunk)
            .spawn(move |ctx| {
                // The rotated band is read in place, viewed as an image of
                // its own.
                let band_rgb = ctx.read_chunk(&rot_chunk);
                let rows = band_rgb.len() / (3 * width);
                let band_img = ImageRgbView::new(width, rows, &band_rgb);
                let mut out = ctx.write_chunk(&cmyk_chunk);
                convert_rows_view(band_img, 0..rows, &mut out);
            });
    }
    rt.taskwait();
    let data = rt.into_vec(cmyk);
    ImageCmyk {
        width,
        height,
        data,
    }
    .checksum()
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
        assert_eq!(run_pthreads(&p, 4), seq);
        let rt = Runtime::new(RuntimeConfig::default().with_workers(2));
        assert_eq!(run_ompss(&p, &rt), seq);
    }

    #[test]
    fn band_to_band_chaining_produces_many_dependence_edges() {
        let p = Params::small();
        let rt = Runtime::new(RuntimeConfig::default().with_workers(2).with_tracing(true));
        let _ = run_ompss(&p, &rt);
        let stats = rt.stats();
        // Every conversion task depends on its rotate task (plus the rotate
        // tasks' RAW edges on the source image handle). `edges_added` only
        // counts predecessors still in flight at registration and so varies
        // with host load; `dependences_seen` counts the discovered
        // conflicts deterministically.
        assert!(stats.dependences_seen >= (p.height.div_ceil(p.band_rows)) as u64);
    }
}
