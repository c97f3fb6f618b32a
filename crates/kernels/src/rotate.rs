//! `rotate`: arbitrary-angle image rotation with bilinear interpolation.
//!
//! The benchmark rotates an RGB image about its centre by a given angle.
//! Each output scanline depends only on the (read-only) source image, so the
//! natural work unit — in both the Pthreads and OmpSs variants — is a band of
//! output rows: [`rotate_rows`]. [`rotate`] is the sequential reference.

use crate::image::{ImageRgb, ImageRgbView};

/// Sample the source image at a fractional position with bilinear
/// interpolation; out-of-bounds samples are black.
fn sample_bilinear(src: ImageRgbView<'_>, x: f64, y: f64) -> [u8; 3] {
    if x < 0.0 || y < 0.0 {
        return [0, 0, 0];
    }
    let x0 = x.floor() as usize;
    let y0 = y.floor() as usize;
    if x0 + 1 >= src.width || y0 + 1 >= src.height {
        // Clamp exact-edge hits; everything farther out is black.
        if x0 < src.width && y0 < src.height && (x - x0 as f64) < 1e-9 && (y - y0 as f64) < 1e-9 {
            return src.get(x0, y0);
        }
        return [0, 0, 0];
    }
    let fx = x - x0 as f64;
    let fy = y - y0 as f64;
    let p00 = src.get(x0, y0);
    let p10 = src.get(x0 + 1, y0);
    let p01 = src.get(x0, y0 + 1);
    let p11 = src.get(x0 + 1, y0 + 1);
    let mut out = [0u8; 3];
    for c in 0..3 {
        let top = p00[c] as f64 * (1.0 - fx) + p10[c] as f64 * fx;
        let bottom = p01[c] as f64 * (1.0 - fx) + p11[c] as f64 * fx;
        out[c] = (top * (1.0 - fy) + bottom * fy).round().clamp(0.0, 255.0) as u8;
    }
    out
}

/// Rotate rows `rows` of the output image (which has the same dimensions as
/// `src`) by `angle_rad` about the image centre, writing interleaved RGB into
/// `out_rows`. `out_rows` must hold `3 * src.width * rows.len()` bytes.
///
/// # Panics
/// Panics if the output buffer size does not match.
pub fn rotate_rows(
    src: &ImageRgb,
    angle_rad: f64,
    rows: std::ops::Range<usize>,
    out_rows: &mut [u8],
) {
    rotate_rows_view(src.view(), angle_rad, rows, out_rows);
}

/// [`rotate_rows`] over a borrowed source image.
///
/// # Panics
/// Panics if the output buffer size does not match.
pub fn rotate_rows_view(
    src: ImageRgbView<'_>,
    angle_rad: f64,
    rows: std::ops::Range<usize>,
    out_rows: &mut [u8],
) {
    assert_eq!(
        out_rows.len(),
        3 * src.width * rows.len(),
        "output buffer size mismatch"
    );
    let (sin_a, cos_a) = angle_rad.sin_cos();
    let cx = (src.width as f64 - 1.0) / 2.0;
    let cy = (src.height as f64 - 1.0) / 2.0;
    for (ri, y) in rows.enumerate() {
        for x in 0..src.width {
            // Inverse mapping: rotate the destination pixel back into the
            // source frame.
            let dx = x as f64 - cx;
            let dy = y as f64 - cy;
            let sx = cos_a * dx + sin_a * dy + cx;
            let sy = -sin_a * dx + cos_a * dy + cy;
            let rgb = sample_bilinear(src, sx, sy);
            let o = 3 * (ri * src.width + x);
            out_rows[o..o + 3].copy_from_slice(&rgb);
        }
    }
}

/// Sequential reference: rotate the whole image.
pub fn rotate(src: &ImageRgb, angle_rad: f64) -> ImageRgb {
    let mut out = ImageRgb::new(src.width, src.height);
    let range = 0..src.height;
    rotate_rows(src, angle_rad, range, &mut out.data);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::synthetic_rgb_image;
    use proptest::prelude::*;

    #[test]
    fn zero_rotation_is_identity() {
        let img = synthetic_rgb_image(31, 17, 42);
        let out = rotate(&img, 0.0);
        assert_eq!(out.data, img.data);
    }

    #[test]
    fn rotation_preserves_dimensions() {
        let img = synthetic_rgb_image(20, 10, 1);
        let out = rotate(&img, 0.7);
        assert_eq!(out.width, 20);
        assert_eq!(out.height, 10);
        assert_eq!(out.data.len(), img.data.len());
    }

    #[test]
    fn half_turn_twice_is_near_identity_in_center() {
        // Rotating 180° twice should reproduce the original almost exactly
        // away from the borders (bilinear sampling at half-integer centres is
        // exact for 180°).
        let img = synthetic_rgb_image(33, 33, 7);
        let once = rotate(&img, std::f64::consts::PI);
        let twice = rotate(&once, std::f64::consts::PI);
        let mut diffs = 0usize;
        for y in 4..29 {
            for x in 4..29 {
                let a = img.get(x, y);
                let b = twice.get(x, y);
                if (0..3).any(|c| (a[c] as i32 - b[c] as i32).abs() > 2) {
                    diffs += 1;
                }
            }
        }
        assert_eq!(diffs, 0, "centre pixels must survive two half turns");
    }

    #[test]
    fn row_band_matches_full_rotation() {
        let img = synthetic_rgb_image(25, 19, 3);
        let angle = 0.35;
        let full = rotate(&img, angle);
        let rows = 5..9;
        let mut band = vec![0u8; 3 * img.width * rows.len()];
        rotate_rows(&img, angle, rows.clone(), &mut band);
        let expected = &full.data[3 * img.width * rows.start..3 * img.width * rows.end];
        assert_eq!(&band[..], expected);
    }

    #[test]
    #[should_panic(expected = "output buffer size mismatch")]
    fn wrong_output_buffer_panics() {
        let img = synthetic_rgb_image(8, 8, 0);
        let mut buf = vec![0u8; 5];
        rotate_rows(&img, 0.3, 0..2, &mut buf);
    }

    #[test]
    fn out_of_bounds_samples_are_black() {
        // Rotating a bright image by 45° leaves black corners.
        let mut img = ImageRgb::new(16, 16);
        for v in img.data.iter_mut() {
            *v = 255;
        }
        let out = rotate(&img, std::f64::consts::FRAC_PI_4);
        assert_eq!(out.get(0, 0), [0, 0, 0]);
        assert_eq!(out.get(15, 15), [0, 0, 0]);
        // Centre stays bright.
        assert_eq!(out.get(8, 8), [255, 255, 255]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Any band of rows reproduces the corresponding slice of the full
        /// rotation (i.e. the parallel decomposition is exact).
        #[test]
        fn prop_bands_compose(w in 4usize..40, h in 4usize..32, angle in -3.2f64..3.2,
                              split_frac in 0.1f64..0.9) {
            let img = synthetic_rgb_image(w, h, 11);
            let full = rotate(&img, angle);
            let split = ((h as f64) * split_frac) as usize;
            let split = split.clamp(1, h - 1);
            let mut top = vec![0u8; 3 * w * split];
            let mut bottom = vec![0u8; 3 * w * (h - split)];
            rotate_rows(&img, angle, 0..split, &mut top);
            rotate_rows(&img, angle, split..h, &mut bottom);
            let mut combined = top;
            combined.extend_from_slice(&bottom);
            prop_assert_eq!(combined, full.data);
        }
    }
}
