//! `rgbcmy`: RGB → CMYK colour-space conversion.
//!
//! The benchmark repeatedly converts an RGB image to CMYK (multiple
//! iterations are used to stabilise the measured time, with a barrier between
//! iterations — the property Section 4 uses to discuss barrier costs). The
//! parallel work unit is a band of rows: [`convert_rows`].

use crate::image::{ImageCmyk, ImageRgb, ImageRgbView};

/// Convert one RGB pixel to CMYK using the standard undercolour-removal
/// formula (all channels 8-bit).
pub fn rgb_to_cmyk_pixel(rgb: [u8; 3]) -> [u8; 4] {
    let r = rgb[0] as f64 / 255.0;
    let g = rgb[1] as f64 / 255.0;
    let b = rgb[2] as f64 / 255.0;
    let k = 1.0 - r.max(g).max(b);
    if (1.0 - k).abs() < 1e-12 {
        return [0, 0, 0, 255];
    }
    let c = (1.0 - r - k) / (1.0 - k);
    let m = (1.0 - g - k) / (1.0 - k);
    let y = (1.0 - b - k) / (1.0 - k);
    [
        (c * 255.0).round() as u8,
        (m * 255.0).round() as u8,
        (y * 255.0).round() as u8,
        (k * 255.0).round() as u8,
    ]
}

/// Convert rows `rows` of `src` into `out_rows` (interleaved CMYK,
/// `4 * src.width * rows.len()` bytes). This is the parallel work unit.
///
/// # Panics
/// Panics if the output buffer size does not match.
pub fn convert_rows(src: &ImageRgb, rows: std::ops::Range<usize>, out_rows: &mut [u8]) {
    convert_rows_view(src.view(), rows, out_rows);
}

/// [`convert_rows`] over a borrowed source image.
///
/// # Panics
/// Panics if the output buffer size does not match.
pub fn convert_rows_view(src: ImageRgbView<'_>, rows: std::ops::Range<usize>, out_rows: &mut [u8]) {
    assert_eq!(
        out_rows.len(),
        4 * src.width * rows.len(),
        "output buffer size mismatch"
    );
    for (ri, y) in rows.enumerate() {
        for x in 0..src.width {
            let cmyk = rgb_to_cmyk_pixel(src.get(x, y));
            let o = 4 * (ri * src.width + x);
            out_rows[o..o + 4].copy_from_slice(&cmyk);
        }
    }
}

/// Sequential reference: convert the whole image.
pub fn convert(src: &ImageRgb) -> ImageCmyk {
    let mut out = ImageCmyk::new(src.width, src.height);
    convert_rows(src, 0..src.height, &mut out.data);
    out
}

/// Approximate inverse conversion (CMYK → RGB), used only to validate the
/// forward conversion in tests.
pub fn cmyk_to_rgb_pixel(cmyk: [u8; 4]) -> [u8; 3] {
    let c = cmyk[0] as f64 / 255.0;
    let m = cmyk[1] as f64 / 255.0;
    let y = cmyk[2] as f64 / 255.0;
    let k = cmyk[3] as f64 / 255.0;
    [
        (255.0 * (1.0 - c) * (1.0 - k)).round() as u8,
        (255.0 * (1.0 - m) * (1.0 - k)).round() as u8,
        (255.0 * (1.0 - y) * (1.0 - k)).round() as u8,
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::synthetic_rgb_image;
    use proptest::prelude::*;

    #[test]
    fn primary_colors_convert_as_expected() {
        assert_eq!(rgb_to_cmyk_pixel([255, 255, 255]), [0, 0, 0, 0]);
        assert_eq!(rgb_to_cmyk_pixel([0, 0, 0]), [0, 0, 0, 255]);
        assert_eq!(rgb_to_cmyk_pixel([255, 0, 0]), [0, 255, 255, 0]);
        assert_eq!(rgb_to_cmyk_pixel([0, 255, 0]), [255, 0, 255, 0]);
        assert_eq!(rgb_to_cmyk_pixel([0, 0, 255]), [255, 255, 0, 0]);
    }

    #[test]
    fn convert_whole_image_dimensions() {
        let img = synthetic_rgb_image(13, 7, 5);
        let out = convert(&img);
        assert_eq!(out.width, 13);
        assert_eq!(out.height, 7);
        assert_eq!(out.data.len(), 4 * 13 * 7);
    }

    #[test]
    fn row_band_matches_full_conversion() {
        let img = synthetic_rgb_image(21, 11, 9);
        let full = convert(&img);
        let rows = 3..8;
        let mut band = vec![0u8; 4 * img.width * rows.len()];
        convert_rows(&img, rows.clone(), &mut band);
        assert_eq!(
            &band[..],
            &full.data[4 * img.width * rows.start..4 * img.width * rows.end]
        );
    }

    #[test]
    #[should_panic(expected = "output buffer size mismatch")]
    fn wrong_buffer_size_panics() {
        let img = synthetic_rgb_image(4, 4, 0);
        let mut buf = vec![0u8; 3];
        convert_rows(&img, 0..1, &mut buf);
    }

    proptest! {
        /// Round-tripping RGB→CMYK→RGB reproduces the colour to within
        /// rounding error (≤ 2 per channel).
        #[test]
        fn prop_roundtrip_accurate(rgb in proptest::array::uniform3(0u8..)) {
            let back = cmyk_to_rgb_pixel(rgb_to_cmyk_pixel(rgb));
            for c in 0..3 {
                prop_assert!((back[c] as i32 - rgb[c] as i32).abs() <= 2,
                    "channel {c}: {} vs {}", back[c], rgb[c]);
            }
        }

        /// K equals 255 minus the max channel (undercolour removal).
        #[test]
        fn prop_k_complements_max_channel(rgb in proptest::array::uniform3(0u8..)) {
            let k = rgb_to_cmyk_pixel(rgb)[3];
            let max = *rgb.iter().max().unwrap();
            prop_assert!((k as i32 - (255 - max) as i32).abs() <= 1);
        }

        /// Splitting the conversion into two bands reproduces the full image.
        #[test]
        fn prop_bands_compose(w in 1usize..30, h in 2usize..20, split_frac in 0.1f64..0.9, seed in 0u64..100) {
            let img = synthetic_rgb_image(w, h, seed);
            let full = convert(&img);
            let split = (((h as f64) * split_frac) as usize).clamp(1, h - 1);
            let mut top = vec![0u8; 4 * w * split];
            let mut bottom = vec![0u8; 4 * w * (h - split)];
            convert_rows(&img, 0..split, &mut top);
            convert_rows(&img, split..h, &mut bottom);
            let mut combined = top;
            combined.extend_from_slice(&bottom);
            prop_assert_eq!(combined, full.data);
        }
    }
}
