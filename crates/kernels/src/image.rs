//! Image containers shared by the image-processing benchmarks.

/// An 8-bit interleaved RGB image (3 bytes per pixel, row-major).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ImageRgb {
    /// Width in pixels.
    pub width: usize,
    /// Height in pixels.
    pub height: usize,
    /// Interleaved RGB samples, `3 * width * height` bytes.
    pub data: Vec<u8>,
}

impl ImageRgb {
    /// Create a black image.
    pub fn new(width: usize, height: usize) -> Self {
        ImageRgb {
            width,
            height,
            data: vec![0; 3 * width * height],
        }
    }

    /// Create an image from existing interleaved data.
    ///
    /// # Panics
    /// Panics if `data.len() != 3 * width * height`.
    pub fn from_data(width: usize, height: usize, data: Vec<u8>) -> Self {
        assert_eq!(data.len(), 3 * width * height, "RGB data size mismatch");
        ImageRgb {
            width,
            height,
            data,
        }
    }

    /// Number of pixels.
    pub fn pixels(&self) -> usize {
        self.width * self.height
    }

    /// The RGB triple at `(x, y)`.
    pub fn get(&self, x: usize, y: usize) -> [u8; 3] {
        let i = 3 * (y * self.width + x);
        [self.data[i], self.data[i + 1], self.data[i + 2]]
    }

    /// Set the RGB triple at `(x, y)`.
    pub fn set(&mut self, x: usize, y: usize, rgb: [u8; 3]) {
        let i = 3 * (y * self.width + x);
        self.data[i..i + 3].copy_from_slice(&rgb);
    }

    /// Byte range of row `y` within `data` (used to partition by scanline).
    pub fn row_range(&self, y: usize) -> std::ops::Range<usize> {
        let w = 3 * self.width;
        y * w..(y + 1) * w
    }

    /// A simple order-dependent checksum used to compare outputs across
    /// benchmark variants.
    pub fn checksum(&self) -> u64 {
        fletcher64(&self.data)
    }

    /// Borrow the image as a view.
    pub fn view(&self) -> ImageRgbView<'_> {
        ImageRgbView {
            width: self.width,
            height: self.height,
            data: &self.data,
        }
    }
}

/// A borrowed 8-bit interleaved RGB image: the read side of [`ImageRgb`]
/// over samples owned elsewhere (a band of a larger buffer, a runtime read
/// guard), so a kernel can read them in place.
#[derive(Debug, Clone, Copy)]
pub struct ImageRgbView<'a> {
    /// Width in pixels.
    pub width: usize,
    /// Height in pixels.
    pub height: usize,
    /// Interleaved RGB samples, `3 * width * height` bytes.
    pub data: &'a [u8],
}

impl<'a> ImageRgbView<'a> {
    /// View `data` as a `width × height` image.
    ///
    /// # Panics
    /// Panics if `data.len() != 3 * width * height`.
    pub fn new(width: usize, height: usize, data: &'a [u8]) -> Self {
        assert_eq!(data.len(), 3 * width * height, "RGB data size mismatch");
        ImageRgbView {
            width,
            height,
            data,
        }
    }

    /// The RGB triple at `(x, y)`.
    pub fn get(&self, x: usize, y: usize) -> [u8; 3] {
        let i = 3 * (y * self.width + x);
        [self.data[i], self.data[i + 1], self.data[i + 2]]
    }
}

/// An 8-bit grayscale image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ImageGray {
    /// Width in pixels.
    pub width: usize,
    /// Height in pixels.
    pub height: usize,
    /// One byte per pixel, row-major.
    pub data: Vec<u8>,
}

impl ImageGray {
    /// Create a black image.
    pub fn new(width: usize, height: usize) -> Self {
        ImageGray {
            width,
            height,
            data: vec![0; width * height],
        }
    }

    /// The sample at `(x, y)`.
    pub fn get(&self, x: usize, y: usize) -> u8 {
        self.data[y * self.width + x]
    }

    /// Set the sample at `(x, y)`.
    pub fn set(&mut self, x: usize, y: usize, v: u8) {
        self.data[y * self.width + x] = v;
    }

    /// Order-dependent checksum of the samples.
    pub fn checksum(&self) -> u64 {
        fletcher64(&self.data)
    }
}

/// An 8-bit interleaved CMYK image (4 bytes per pixel, row-major).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ImageCmyk {
    /// Width in pixels.
    pub width: usize,
    /// Height in pixels.
    pub height: usize,
    /// Interleaved CMYK samples, `4 * width * height` bytes.
    pub data: Vec<u8>,
}

impl ImageCmyk {
    /// Create an all-zero (white) image.
    pub fn new(width: usize, height: usize) -> Self {
        ImageCmyk {
            width,
            height,
            data: vec![0; 4 * width * height],
        }
    }

    /// The CMYK quadruple at `(x, y)`.
    pub fn get(&self, x: usize, y: usize) -> [u8; 4] {
        let i = 4 * (y * self.width + x);
        [
            self.data[i],
            self.data[i + 1],
            self.data[i + 2],
            self.data[i + 3],
        ]
    }

    /// Byte range of row `y` within `data`.
    pub fn row_range(&self, y: usize) -> std::ops::Range<usize> {
        let w = 4 * self.width;
        y * w..(y + 1) * w
    }

    /// Order-dependent checksum of the samples.
    pub fn checksum(&self) -> u64 {
        fletcher64(&self.data)
    }
}

/// Fletcher-style 64-bit checksum, order dependent, used to compare benchmark
/// outputs for equality without storing whole images.
pub fn fletcher64(data: &[u8]) -> u64 {
    let mut a: u64 = 1;
    let mut b: u64 = 0;
    for &byte in data {
        a = (a + byte as u64) % 0xFFFF_FFFB;
        b = (b + a) % 0xFFFF_FFFB;
    }
    (b << 32) | a
}

/// Peak signal-to-noise ratio between two byte buffers (dB). Returns
/// `f64::INFINITY` for identical buffers.
///
/// # Panics
/// Panics if the buffers differ in length or are empty.
pub fn psnr(a: &[u8], b: &[u8]) -> f64 {
    assert_eq!(a.len(), b.len(), "PSNR requires equal-length buffers");
    assert!(!a.is_empty(), "PSNR of empty buffers is undefined");
    let mse: f64 = a
        .iter()
        .zip(b.iter())
        .map(|(&x, &y)| {
            let d = x as f64 - y as f64;
            d * d
        })
        .sum::<f64>()
        / a.len() as f64;
    if mse == 0.0 {
        f64::INFINITY
    } else {
        10.0 * (255.0f64 * 255.0 / mse).log10()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn rgb_get_set_roundtrip() {
        let mut img = ImageRgb::new(4, 3);
        img.set(2, 1, [10, 20, 30]);
        assert_eq!(img.get(2, 1), [10, 20, 30]);
        assert_eq!(img.get(0, 0), [0, 0, 0]);
        assert_eq!(img.pixels(), 12);
    }

    #[test]
    fn rgb_row_range_is_contiguous() {
        let img = ImageRgb::new(5, 4);
        assert_eq!(img.row_range(0), 0..15);
        assert_eq!(img.row_range(3), 45..60);
    }

    #[test]
    #[should_panic(expected = "RGB data size mismatch")]
    fn rgb_from_data_size_mismatch_panics() {
        let _ = ImageRgb::from_data(2, 2, vec![0; 5]);
    }

    #[test]
    fn gray_get_set() {
        let mut img = ImageGray::new(3, 3);
        img.set(1, 2, 200);
        assert_eq!(img.get(1, 2), 200);
    }

    #[test]
    fn cmyk_layout() {
        let img = ImageCmyk::new(3, 2);
        assert_eq!(img.data.len(), 24);
        assert_eq!(img.get(0, 0), [0, 0, 0, 0]);
        assert_eq!(img.row_range(1), 12..24);
    }

    #[test]
    fn checksum_detects_changes() {
        let mut img = ImageRgb::new(8, 8);
        let c0 = img.checksum();
        img.set(3, 3, [1, 0, 0]);
        assert_ne!(c0, img.checksum());
    }

    #[test]
    fn checksum_is_order_dependent() {
        assert_ne!(fletcher64(&[1, 2, 3]), fletcher64(&[3, 2, 1]));
        assert_eq!(fletcher64(&[]), 1);
    }

    #[test]
    fn psnr_identical_is_infinite() {
        let a = vec![7u8; 100];
        assert!(psnr(&a, &a).is_infinite());
    }

    #[test]
    fn psnr_decreases_with_noise() {
        let a = vec![100u8; 1000];
        let mut small_noise = a.clone();
        small_noise[0] = 101;
        let mut big_noise = a.clone();
        for v in big_noise.iter_mut() {
            *v = 0;
        }
        assert!(psnr(&a, &small_noise) > psnr(&a, &big_noise));
        assert!(psnr(&a, &big_noise) > 0.0);
    }

    #[test]
    #[should_panic(expected = "equal-length")]
    fn psnr_length_mismatch_panics() {
        let _ = psnr(&[1, 2], &[1, 2, 3]);
    }

    proptest! {
        /// Set-then-get returns the written value for every in-bounds pixel.
        #[test]
        fn prop_rgb_set_get(w in 1usize..20, h in 1usize..20, x in 0usize..20, y in 0usize..20,
                            rgb in proptest::array::uniform3(0u8..)) {
            prop_assume!(x < w && y < h);
            let mut img = ImageRgb::new(w, h);
            img.set(x, y, rgb);
            prop_assert_eq!(img.get(x, y), rgb);
        }

        /// PSNR is symmetric.
        #[test]
        fn prop_psnr_symmetric(a in proptest::collection::vec(0u8.., 1..200),
                               b_seed in 0u8..) {
            let b: Vec<u8> = a.iter().map(|v| v.wrapping_add(b_seed)).collect();
            let p1 = psnr(&a, &b);
            let p2 = psnr(&b, &a);
            if p1.is_finite() {
                prop_assert!((p1 - p2).abs() < 1e-9);
            } else {
                prop_assert!(p2.is_infinite());
            }
        }
    }
}
