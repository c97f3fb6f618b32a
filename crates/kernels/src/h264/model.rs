//! Frame / macroblock model, synthetic video generation, and the encoder.
//!
//! The codec is deliberately lossless: prediction (intra DC or motion
//! compensation) plus exp-Golomb-coded residuals reproduce the source frame
//! exactly, which makes `decode(encode(v)) == v` the correctness oracle for
//! every decoder variant in the benchmark suite.

use rand::Rng;

use super::bitstream::{BitReader, BitWriter};
use crate::workload::rng;

/// Macroblock edge length in pixels.
pub const MB_SIZE: usize = 16;

/// Start-code marker placed before every encoded frame (mimics the H.264
/// Annex-B start code).
pub const START_CODE: u32 = 0x0000_0101;

/// Frame coding type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameType {
    /// Intra frame: predicted from a constant, no reference needed.
    Intra,
    /// Predicted frame: motion compensated from the previous decoded frame.
    Predicted,
}

/// Parameters of a synthetic video sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VideoParams {
    /// Width in pixels (must be a multiple of [`MB_SIZE`]).
    pub width: usize,
    /// Height in pixels (must be a multiple of [`MB_SIZE`]).
    pub height: usize,
    /// Number of frames.
    pub frames: usize,
    /// Distance between intra frames (1 = all intra).
    pub gop: usize,
    /// Seed for the synthetic content.
    pub seed: u64,
}

impl Default for VideoParams {
    fn default() -> Self {
        VideoParams {
            width: 64,
            height: 48,
            frames: 16,
            gop: 8,
            seed: 1,
        }
    }
}

impl VideoParams {
    /// Macroblock columns.
    pub fn mb_cols(&self) -> usize {
        self.width / MB_SIZE
    }

    /// Macroblock rows.
    pub fn mb_rows(&self) -> usize {
        self.height / MB_SIZE
    }

    /// Validate the parameters.
    ///
    /// # Panics
    /// Panics if dimensions are not multiples of [`MB_SIZE`] or zero frames
    /// are requested.
    pub fn validate(&self) {
        assert!(
            self.width.is_multiple_of(MB_SIZE) && self.height.is_multiple_of(MB_SIZE),
            "dimensions must be multiples of {MB_SIZE}"
        );
        assert!(self.width > 0 && self.height > 0, "empty frame");
        assert!(self.frames > 0, "need at least one frame");
        assert!(self.gop > 0, "GOP must be positive");
    }
}

/// A decoded (or source) grayscale frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodedFrame {
    /// Display/decode order number.
    pub frame_num: u32,
    /// Width in pixels.
    pub width: usize,
    /// Height in pixels.
    pub height: usize,
    /// Luma samples, row-major.
    pub pixels: Vec<u8>,
}

impl DecodedFrame {
    /// Create a mid-gray frame.
    pub fn new(frame_num: u32, width: usize, height: usize) -> Self {
        DecodedFrame {
            frame_num,
            width,
            height,
            pixels: vec![128; width * height],
        }
    }

    /// Sample at `(x, y)`, clamping coordinates to the frame (used by motion
    /// compensation near edges).
    pub fn sample_clamped(&self, x: isize, y: isize) -> u8 {
        let xc = x.clamp(0, self.width as isize - 1) as usize;
        let yc = y.clamp(0, self.height as isize - 1) as usize;
        self.pixels[yc * self.width + xc]
    }

    /// Order-dependent checksum of the pixels.
    pub fn checksum(&self) -> u64 {
        crate::image::fletcher64(&self.pixels)
    }
}

/// Header of an encoded frame (what the parse stage extracts).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameHeader {
    /// Decode-order frame number.
    pub frame_num: u32,
    /// Frame coding type.
    pub frame_type: FrameType,
    /// Macroblock columns.
    pub mb_cols: usize,
    /// Macroblock rows.
    pub mb_rows: usize,
}

/// Syntax elements of one macroblock (what entropy decoding extracts).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MacroblockSyntax {
    /// Motion vector (x, y) in pixels; `(0, 0)` for intra macroblocks.
    pub mv: (i32, i32),
    /// Residual samples, `MB_SIZE * MB_SIZE` values.
    pub residuals: Vec<i32>,
}

/// One encoded frame: header fields plus the entropy-coded macroblock
/// payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EncodedFrame {
    /// Decode-order frame number.
    pub frame_num: u32,
    /// Frame coding type.
    pub frame_type: FrameType,
    /// Macroblock columns.
    pub mb_cols: usize,
    /// Macroblock rows.
    pub mb_rows: usize,
    /// Entropy-coded macroblock data.
    pub payload: Vec<u8>,
}

/// A whole encoded sequence: a single byte stream plus its parameters, the
/// input of the `read` stage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EncodedStream {
    /// Sequence parameters.
    pub params: VideoParams,
    /// Concatenated encoded frames, each preceded by a start code and a
    /// 32-bit payload length.
    pub bytes: Vec<u8>,
}

impl EncodedStream {
    /// Total size of the stream in bytes.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// Whether the stream contains no bytes.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }
}

/// Generate a deterministic synthetic video: a moving bright rectangle and a
/// diagonal gradient over a noisy background, with global panning so that
/// P-frames have real motion to chase.
pub fn generate_video(params: &VideoParams) -> Vec<DecodedFrame> {
    params.validate();
    let mut r = rng(params.seed);
    let noise: Vec<u8> = (0..params.width * params.height)
        .map(|_| r.gen_range(0..24u8))
        .collect();
    let mut frames = Vec::with_capacity(params.frames);
    for f in 0..params.frames {
        let mut frame = DecodedFrame::new(f as u32, params.width, params.height);
        let pan_x = (2 * f) % params.width;
        let rect_x = (params.width / 4 + 3 * f) % params.width;
        let rect_y = (params.height / 4 + f) % params.height;
        for y in 0..params.height {
            for x in 0..params.width {
                let gx = (x + pan_x) % params.width;
                let base = ((gx * 255 / params.width) + (y * 128 / params.height)) as u16;
                let mut v = (base % 256) as u8;
                // Bright moving rectangle.
                let in_rect = (x as isize - rect_x as isize).rem_euclid(params.width as isize)
                    < (params.width / 6) as isize
                    && (y as isize - rect_y as isize).rem_euclid(params.height as isize)
                        < (params.height / 6) as isize;
                if in_rect {
                    v = v.saturating_add(90);
                }
                v = v.wrapping_add(noise[y * params.width + x] / 2);
                frame.pixels[y * params.width + x] = v;
            }
        }
        frames.push(frame);
    }
    frames
}

/// Motion search window radius in pixels (small, keeps encoding cheap).
const SEARCH_RADIUS: i32 = 4;

fn sad_block(
    cur: &DecodedFrame,
    reference: &DecodedFrame,
    mb_x: usize,
    mb_y: usize,
    mv: (i32, i32),
) -> u64 {
    let mut sad = 0u64;
    for dy in 0..MB_SIZE {
        for dx in 0..MB_SIZE {
            let cx = mb_x * MB_SIZE + dx;
            let cy = mb_y * MB_SIZE + dy;
            let cur_pix = cur.pixels[cy * cur.width + cx];
            let ref_pix =
                reference.sample_clamped(cx as isize + mv.0 as isize, cy as isize + mv.1 as isize);
            sad += (cur_pix as i64 - ref_pix as i64).unsigned_abs();
        }
    }
    sad
}

/// Full-search motion estimation for one macroblock.
fn motion_search(
    cur: &DecodedFrame,
    reference: &DecodedFrame,
    mb_x: usize,
    mb_y: usize,
) -> (i32, i32) {
    let mut best = (0, 0);
    let mut best_sad = sad_block(cur, reference, mb_x, mb_y, (0, 0));
    for my in -SEARCH_RADIUS..=SEARCH_RADIUS {
        for mx in -SEARCH_RADIUS..=SEARCH_RADIUS {
            if (mx, my) == (0, 0) {
                continue;
            }
            let sad = sad_block(cur, reference, mb_x, mb_y, (mx, my));
            if sad < best_sad {
                best_sad = sad;
                best = (mx, my);
            }
        }
    }
    best
}

/// Prediction for one macroblock pixel: intra frames predict the constant
/// 128; predicted frames motion-compensate from the reference.
pub fn predict_pixel(
    frame_type: FrameType,
    reference: Option<&DecodedFrame>,
    x: usize,
    y: usize,
    mv: (i32, i32),
) -> u8 {
    match frame_type {
        FrameType::Intra => 128,
        FrameType::Predicted => {
            let r = reference.expect("P frame needs a reference");
            r.sample_clamped(x as isize + mv.0 as isize, y as isize + mv.1 as isize)
        }
    }
}

/// Encode one frame against an optional reference, producing the macroblock
/// payload (motion vectors + residuals, exp-Golomb coded).
pub fn encode_frame(
    frame: &DecodedFrame,
    reference: Option<&DecodedFrame>,
    frame_type: FrameType,
    mb_cols: usize,
    mb_rows: usize,
) -> EncodedFrame {
    let mut w = BitWriter::new();
    for mb_y in 0..mb_rows {
        for mb_x in 0..mb_cols {
            let mv = match (frame_type, reference) {
                (FrameType::Predicted, Some(r)) => motion_search(frame, r, mb_x, mb_y),
                _ => (0, 0),
            };
            if frame_type == FrameType::Predicted {
                w.put_se(mv.0);
                w.put_se(mv.1);
            }
            for dy in 0..MB_SIZE {
                for dx in 0..MB_SIZE {
                    let x = mb_x * MB_SIZE + dx;
                    let y = mb_y * MB_SIZE + dy;
                    let pred = predict_pixel(frame_type, reference, x, y, mv);
                    let residual = frame.pixels[y * frame.width + x] as i32 - pred as i32;
                    w.put_se(residual);
                }
            }
        }
    }
    EncodedFrame {
        frame_num: frame.frame_num,
        frame_type,
        mb_cols,
        mb_rows,
        payload: w.finish(),
    }
}

/// Encode a whole sequence into a single byte stream (the decoder's input).
pub fn encode_sequence(params: &VideoParams, frames: &[DecodedFrame]) -> EncodedStream {
    params.validate();
    let mut bytes = Vec::new();
    let mut previous: Option<&DecodedFrame> = None;
    for (i, frame) in frames.iter().enumerate() {
        let frame_type = if i % params.gop == 0 {
            FrameType::Intra
        } else {
            FrameType::Predicted
        };
        let reference = if frame_type == FrameType::Predicted {
            previous
        } else {
            None
        };
        let encoded = encode_frame(
            frame,
            reference,
            frame_type,
            params.mb_cols(),
            params.mb_rows(),
        );
        // Container framing: start code, frame_num, type, payload length,
        // payload.
        bytes.extend_from_slice(&START_CODE.to_be_bytes());
        bytes.extend_from_slice(&encoded.frame_num.to_be_bytes());
        bytes.push(match encoded.frame_type {
            FrameType::Intra => 0,
            FrameType::Predicted => 1,
        });
        bytes.extend_from_slice(&(encoded.payload.len() as u32).to_be_bytes());
        bytes.extend_from_slice(&encoded.payload);
        previous = Some(frame);
    }
    EncodedStream {
        params: *params,
        bytes,
    }
}

/// Decode the macroblock payload of one frame into per-macroblock syntax
/// elements (the entropy-decode stage's computation).
pub fn parse_macroblocks(
    payload: &[u8],
    frame_type: FrameType,
    mb_cols: usize,
    mb_rows: usize,
) -> Vec<MacroblockSyntax> {
    let mut r = BitReader::new(payload);
    let mut out = Vec::with_capacity(mb_cols * mb_rows);
    for _ in 0..mb_cols * mb_rows {
        let mv = if frame_type == FrameType::Predicted {
            (
                r.get_se().expect("truncated motion vector"),
                r.get_se().expect("truncated motion vector"),
            )
        } else {
            (0, 0)
        };
        let residuals: Vec<i32> = (0..MB_SIZE * MB_SIZE)
            .map(|_| r.get_se().expect("truncated residual"))
            .collect();
        out.push(MacroblockSyntax { mv, residuals });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_params() -> VideoParams {
        VideoParams {
            width: 32,
            height: 32,
            frames: 5,
            gop: 3,
            seed: 7,
        }
    }

    #[test]
    fn video_generation_is_deterministic_and_moving() {
        let p = tiny_params();
        let a = generate_video(&p);
        let b = generate_video(&p);
        assert_eq!(a.len(), 5);
        assert_eq!(a, b);
        // Consecutive frames differ (there is motion).
        assert_ne!(a[0].pixels, a[1].pixels);
    }

    #[test]
    #[should_panic(expected = "multiples of 16")]
    fn invalid_dimensions_panic() {
        let p = VideoParams {
            width: 20,
            ..tiny_params()
        };
        let _ = generate_video(&p);
    }

    #[test]
    fn sample_clamped_handles_out_of_bounds() {
        let mut f = DecodedFrame::new(0, 16, 16);
        f.pixels[0] = 50;
        f.pixels[16 * 16 - 1] = 200;
        assert_eq!(f.sample_clamped(-5, -5), 50);
        assert_eq!(f.sample_clamped(100, 100), 200);
    }

    #[test]
    fn intra_frame_roundtrip_is_lossless() {
        let p = VideoParams {
            frames: 1,
            gop: 1,
            ..tiny_params()
        };
        let video = generate_video(&p);
        let enc = encode_frame(&video[0], None, FrameType::Intra, p.mb_cols(), p.mb_rows());
        let mbs = parse_macroblocks(&enc.payload, FrameType::Intra, p.mb_cols(), p.mb_rows());
        assert_eq!(mbs.len(), p.mb_cols() * p.mb_rows());
        // Reconstruct manually and compare.
        let mut rec = DecodedFrame::new(0, p.width, p.height);
        for (mb_i, mb) in mbs.iter().enumerate() {
            let mb_x = mb_i % p.mb_cols();
            let mb_y = mb_i / p.mb_cols();
            for dy in 0..MB_SIZE {
                for dx in 0..MB_SIZE {
                    let x = mb_x * MB_SIZE + dx;
                    let y = mb_y * MB_SIZE + dy;
                    let pred = predict_pixel(FrameType::Intra, None, x, y, mb.mv) as i32;
                    rec.pixels[y * p.width + x] =
                        (pred + mb.residuals[dy * MB_SIZE + dx]).clamp(0, 255) as u8;
                }
            }
        }
        assert_eq!(rec.pixels, video[0].pixels);
    }

    #[test]
    fn motion_search_finds_exact_translation() {
        // Reference frame with a pattern; current = reference shifted by
        // (2, 1): the search must find mv = (2, 1) for an interior block.
        let p = VideoParams {
            width: 64,
            height: 64,
            frames: 1,
            gop: 1,
            seed: 3,
        };
        let reference = &generate_video(&p)[0];
        let mut current = reference.clone();
        for y in 0..64usize {
            for x in 0..64usize {
                current.pixels[y * 64 + x] =
                    reference.sample_clamped(x as isize + 2, y as isize + 1);
            }
        }
        let mv = motion_search(&current, reference, 1, 1);
        assert_eq!(mv, (2, 1));
    }

    #[test]
    fn encode_sequence_framing_is_parseable() {
        let p = tiny_params();
        let video = generate_video(&p);
        let stream = encode_sequence(&p, &video);
        assert!(!stream.is_empty());
        // First four bytes are the start code.
        assert_eq!(&stream.bytes[0..4], &START_CODE.to_be_bytes());
        // Frame number of the first frame is zero.
        assert_eq!(&stream.bytes[4..8], &0u32.to_be_bytes());
        // Frame type byte of the first frame is Intra.
        assert_eq!(stream.bytes[8], 0);
    }

    #[test]
    fn p_frames_are_smaller_than_i_frames_for_smooth_motion() {
        let p = VideoParams {
            width: 64,
            height: 48,
            frames: 4,
            gop: 4,
            seed: 2,
        };
        let video = generate_video(&p);
        let i_frame = encode_frame(&video[1], None, FrameType::Intra, p.mb_cols(), p.mb_rows());
        let p_frame = encode_frame(
            &video[1],
            Some(&video[0]),
            FrameType::Predicted,
            p.mb_cols(),
            p.mb_rows(),
        );
        assert!(
            p_frame.payload.len() < i_frame.payload.len(),
            "motion compensation must shrink the payload ({} vs {})",
            p_frame.payload.len(),
            i_frame.payload.len()
        );
    }
}
