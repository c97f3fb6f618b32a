//! `rotate`: bilinear image rotation, one work unit per band of output rows.


use kernels::image::ImageRgb;
use kernels::rotate::rotate_rows;
use kernels::workload::synthetic_rgb_image;
use ompss::Runtime;
use threadkit::partition::block_range;

/// Parameters of the rotate benchmark.
#[derive(Debug, Clone, PartialEq)]
pub struct Params {
    /// Image width in pixels.
    pub width: usize,
    /// Image height in pixels.
    pub height: usize,
    /// Rotation angle in radians.
    pub angle: f64,
    /// Number of output rows per work unit.
    pub band_rows: usize,
    /// Seed of the synthetic input image.
    pub seed: u64,
}

impl Params {
    /// Small instance for correctness tests.
    pub fn small() -> Self {
        Params {
            width: 64,
            height: 48,
            angle: 0.41,
            band_rows: 4,
            seed: 11,
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
    let out = kernels::rotate::rotate(&src, p.angle);
    out.checksum()
}

/// Pthreads-style variant: the output rows are block-partitioned over the
/// threads; each thread rotates its contiguous band.
pub fn run_pthreads(p: &Params, threads: usize) -> u64 {
    assert!(threads > 0, "need at least one thread");
    let src = p.input();
    let mut out = vec![0u8; 3 * p.width * p.height];
    {
        let row_bytes = 3 * p.width;
        // Block partition: thread t gets a contiguous band of rows.
        let mut bands: Vec<(std::ops::Range<usize>, &mut [u8])> = Vec::new();
        let mut rest: &mut [u8] = &mut out;
        let mut consumed = 0usize;
        for t in 0..threads {
            let rows = block_range(p.height, threads, t);
            let bytes = rows.len() * row_bytes;
            let (band, tail) = rest.split_at_mut(bytes);
            debug_assert_eq!(rows.start, consumed);
            consumed += rows.len();
            bands.push((rows, band));
            rest = tail;
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
    ImageRgb::from_data(p.width, p.height, out).checksum()
}

/// OmpSs-style variant: one task per band of output rows, reading the whole
/// source image and writing its own output chunk. The output lives in a
/// **versioned** partition: each band's `output` access renames just that
/// chunk, so repeated rotations into the same handle (or callers composing
/// this with downstream readers) never inherit WAR/WAW serialisation and no
/// manual double-buffer is needed.
pub fn run_ompss(p: &Params, rt: &Runtime) -> u64 {
    let src = rt.data(p.input());
    let out =
        rt.versioned_partitioned(vec![0u8; 3 * p.width * p.height], 3 * p.width * p.band_rows);
    let angle = p.angle;
    let band_rows = p.band_rows;
    let height = p.height;
    for (i, chunk) in out.chunk_handles().enumerate() {
        let src = src.clone();
        rt.task()
            .name("rotate_band")
            .input(&src)
            .output(&chunk)
            .spawn(move |ctx| {
                let src = ctx.read(&src);
                let mut band = ctx.write_chunk(&chunk);
                let start = i * band_rows;
                let end = (start + band_rows).min(height);
                rotate_rows(&src, angle, start..end, &mut band);
            });
    }
    rt.taskwait();
    let data = rt.into_vec(out);
    ImageRgb::from_data(p.width, p.height, data).checksum()
}

/// Rotation sweeps the captured (`rotate-cap`) variant performs. Every
/// variant does the same number, so the three rows stay comparable: the
/// rotation is deterministic, so re-rotating is idempotent and the repeat
/// isolates exactly what capture amortises — per-sweep task insertion.
pub const CAPTURE_SWEEPS: usize = 4;

/// Sequential variant of `rotate-cap`: the same rotation, swept
/// [`CAPTURE_SWEEPS`] times.
pub fn run_seq_captured(p: &Params) -> u64 {
    let src = p.input();
    let mut out = kernels::rotate::rotate(&src, p.angle);
    for _ in 1..CAPTURE_SWEEPS {
        out = kernels::rotate::rotate(&src, p.angle);
    }
    out.checksum()
}

/// Pthreads variant of `rotate-cap`: each thread re-rotates its band
/// [`CAPTURE_SWEEPS`] times (bands are disjoint, so no cross-sweep
/// synchronisation is needed — the fairest possible hand-rolled loop).
pub fn run_pthreads_captured(p: &Params, threads: usize) -> u64 {
    assert!(threads > 0, "need at least one thread");
    let src = p.input();
    let mut out = vec![0u8; 3 * p.width * p.height];
    {
        let row_bytes = 3 * p.width;
        let mut bands: Vec<(std::ops::Range<usize>, &mut [u8])> = Vec::new();
        let mut rest: &mut [u8] = &mut out;
        for t in 0..threads {
            let rows = block_range(p.height, threads, t);
            let bytes = rows.len() * row_bytes;
            let (band, tail) = rest.split_at_mut(bytes);
            bands.push((rows, band));
            rest = tail;
        }
        let src = &src;
        let angle = p.angle;
        std::thread::scope(|scope| {
            for (rows, band) in bands {
                scope.spawn(move || {
                    for _ in 0..CAPTURE_SWEEPS {
                        if !rows.is_empty() {
                            rotate_rows(src, angle, rows.clone(), band);
                        }
                    }
                });
            }
        });
    }
    ImageRgb::from_data(p.width, p.height, out).checksum()
}

/// OmpSs variant of `rotate-cap`: the band sweep is spawned **once** inside
/// a capture scope, then re-stamped — one resolved `replay` pass (which
/// freezes the template: the output partition's chunks are disjoint plain
/// regions, so resolution is pass-invariant) and one fused super-batch for
/// the remaining sweeps, riding the pre-wired plan. Inter-sweep WAW chains
/// on each chunk carry the ordering; no taskwait separates the sweeps.
pub fn run_ompss_captured(p: &Params, rt: &Runtime) -> u64 {
    let src = rt.data(p.input());
    let out = rt.partitioned(vec![0u8; 3 * p.width * p.height], 3 * p.width * p.band_rows);
    let angle = p.angle;
    let band_rows = p.band_rows;
    let height = p.height;
    let mut scope = rt.capture();
    for (i, chunk) in out.chunk_handles().enumerate() {
        let src = src.clone();
        scope
            .task()
            .name("rotate_band")
            .input(&src)
            .output(&chunk)
            .spawn(move |ctx| {
                let src = ctx.read(&src);
                let mut band = ctx.write_chunk(&chunk);
                let start = i * band_rows;
                let end = (start + band_rows).min(height);
                rotate_rows(&src, angle, start..end, &mut band);
            });
    }
    let template = scope.finish();
    let bindings = ompss::ReplayBindings::new();
    rt.replay(&template, &bindings);
    rt.replay_fused(&template, CAPTURE_SWEEPS - 2);
    rt.taskwait();
    debug_assert!(
        template.is_frozen(),
        "a disjoint-chunk band sweep must freeze after its pure replay pass"
    );
    // The recipes own clones of the chunk handles; release them so the
    // partition can be reclaimed.
    drop(template);
    let data = rt.into_vec(out);
    ImageRgb::from_data(p.width, p.height, data).checksum()
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
    fn captured_variants_agree_and_freeze() {
        let p = Params::small();
        let seq = run_seq_captured(&p);
        assert_eq!(seq, run_seq(&p), "re-rotation is idempotent");
        assert_eq!(run_pthreads_captured(&p, 3), seq);
        let rt = Runtime::new(RuntimeConfig::default().with_workers(2));
        assert_eq!(run_ompss_captured(&p, &rt), seq);
    }

    #[test]
    fn band_size_does_not_change_the_result() {
        let mut p = Params::small();
        let seq = run_seq(&p);
        let rt = Runtime::new(RuntimeConfig::default().with_workers(2));
        p.band_rows = 7;
        assert_eq!(run_ompss(&p, &rt), seq);
        p.band_rows = 48;
        assert_eq!(run_ompss(&p, &rt), seq);
    }
}
