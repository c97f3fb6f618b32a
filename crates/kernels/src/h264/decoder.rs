//! The five decoder stages of Listing 1 and the sequential reference decoder.
//!
//! Every stage is a plain function over an explicit context struct — exactly
//! the `read_frame_task(rc, …)`, `parse_header_task(nc, …)` … functions of
//! the paper's pipelined main loop — so that the benchmark variants can wrap
//! the *same* stage code in OmpSs tasks, Pthreads pipeline stages, or a plain
//! sequential loop.

use std::collections::BTreeMap;

use super::dpb::{DecodedPictureBuffer, PictureInfoBuffer};
use super::model::{
    parse_macroblocks, predict_pixel, DecodedFrame, EncodedFrame, EncodedStream, FrameHeader,
    FrameType, MacroblockSyntax, MB_SIZE, START_CODE,
};

/// Context of the read stage: the raw byte stream plus a cursor.
#[derive(Debug, Clone)]
pub struct ReadContext {
    bytes: Vec<u8>,
    cursor: usize,
    /// Frames read so far.
    pub frames_read: u32,
}

impl ReadContext {
    /// Create a read context over an encoded stream.
    pub fn new(stream: &EncodedStream) -> Self {
        ReadContext {
            bytes: stream.bytes.clone(),
            cursor: 0,
            frames_read: 0,
        }
    }

    /// Whether the whole stream has been consumed.
    pub fn at_eof(&self) -> bool {
        self.cursor >= self.bytes.len()
    }
}

/// Read stage: extract the next encoded frame from the bitstream, or `None`
/// at end of stream. Mirrors `read_frame_task(rc, &frm[k%N])`.
pub fn read_frame(rc: &mut ReadContext) -> Option<EncodedFrame> {
    if rc.at_eof() {
        return None;
    }
    let b = &rc.bytes;
    let mut pos = rc.cursor;
    let take_u32 = |pos: &mut usize| -> u32 {
        let v = u32::from_be_bytes([b[*pos], b[*pos + 1], b[*pos + 2], b[*pos + 3]]);
        *pos += 4;
        v
    };
    let start = take_u32(&mut pos);
    assert_eq!(start, START_CODE, "corrupt stream: missing start code");
    let frame_num = take_u32(&mut pos);
    let type_byte = b[pos];
    pos += 1;
    let frame_type = if type_byte == 0 {
        FrameType::Intra
    } else {
        FrameType::Predicted
    };
    let payload_len = take_u32(&mut pos) as usize;
    let payload = b[pos..pos + payload_len].to_vec();
    pos += payload_len;
    rc.cursor = pos;
    rc.frames_read += 1;
    Some(EncodedFrame {
        frame_num,
        frame_type,
        // Columns/rows are filled in by the parse stage from the sequence
        // parameters; the bitstream itself does not repeat them per frame.
        mb_cols: 0,
        mb_rows: 0,
        payload,
    })
}

/// Context of the parse stage: sequence-level parameters.
#[derive(Debug, Clone)]
pub struct NalContext {
    /// Macroblock columns of the sequence.
    pub mb_cols: usize,
    /// Macroblock rows of the sequence.
    pub mb_rows: usize,
    /// Frames parsed so far.
    pub frames_parsed: u32,
}

impl NalContext {
    /// Create a parse context from the stream parameters.
    pub fn new(stream: &EncodedStream) -> Self {
        NalContext {
            mb_cols: stream.params.mb_cols(),
            mb_rows: stream.params.mb_rows(),
            frames_parsed: 0,
        }
    }
}

/// Parse stage: extract the frame header (and let the caller allocate a
/// Picture Info entry). Mirrors `parse_header_task(nc, &slice, &frm)`.
pub fn parse_header(nc: &mut NalContext, frame: &EncodedFrame) -> FrameHeader {
    nc.frames_parsed += 1;
    FrameHeader {
        frame_num: frame.frame_num,
        frame_type: frame.frame_type,
        mb_cols: nc.mb_cols,
        mb_rows: nc.mb_rows,
    }
}

/// Context of the entropy-decode stage.
#[derive(Debug, Clone, Default)]
pub struct EntropyContext {
    /// Macroblocks decoded so far.
    pub mbs_decoded: u64,
}

/// Entropy-decode stage: turn the frame payload into per-macroblock syntax
/// elements. Mirrors `entropy_decode_task(ec, …)`.
pub fn entropy_decode_frame(
    ec: &mut EntropyContext,
    frame: &EncodedFrame,
    header: &FrameHeader,
) -> Vec<MacroblockSyntax> {
    let mbs = parse_macroblocks(
        &frame.payload,
        header.frame_type,
        header.mb_cols,
        header.mb_rows,
    );
    ec.mbs_decoded += mbs.len() as u64;
    mbs
}

/// Context of the reconstruction stage: remembers the last reconstructed
/// frame so P frames can reference it.
#[derive(Debug, Clone, Default)]
pub struct ReconstructContext {
    /// Frames reconstructed so far.
    pub frames_reconstructed: u32,
}

/// Reconstruct a band of macroblock rows `mb_row_range` of one frame into
/// `pixels` (a full-frame buffer). This is the intra-frame work unit used by
/// the task-granularity experiments.
pub fn reconstruct_mb_rows(
    header: &FrameHeader,
    mbs: &[MacroblockSyntax],
    reference: Option<&DecodedFrame>,
    mb_row_range: std::ops::Range<usize>,
    pixels: &mut [u8],
) {
    let width = header.mb_cols * MB_SIZE;
    for mb_y in mb_row_range {
        for mb_x in 0..header.mb_cols {
            let mb = &mbs[mb_y * header.mb_cols + mb_x];
            for dy in 0..MB_SIZE {
                for dx in 0..MB_SIZE {
                    let x = mb_x * MB_SIZE + dx;
                    let y = mb_y * MB_SIZE + dy;
                    let pred = predict_pixel(header.frame_type, reference, x, y, mb.mv) as i32;
                    pixels[y * width + x] =
                        (pred + mb.residuals[dy * MB_SIZE + dx]).clamp(0, 255) as u8;
                }
            }
        }
    }
}

/// Reconstruction stage: rebuild the whole frame from syntax elements and the
/// reference frame. Mirrors `reconstruct_task(rc, …)`.
pub fn reconstruct_frame(
    ctx: &mut ReconstructContext,
    header: &FrameHeader,
    mbs: &[MacroblockSyntax],
    reference: Option<&DecodedFrame>,
) -> DecodedFrame {
    let width = header.mb_cols * MB_SIZE;
    let height = header.mb_rows * MB_SIZE;
    let mut frame = DecodedFrame::new(header.frame_num, width, height);
    reconstruct_mb_rows(header, mbs, reference, 0..header.mb_rows, &mut frame.pixels);
    ctx.frames_reconstructed += 1;
    frame
}

/// Context of the output stage: a reorder buffer emitting frames in
/// `frame_num` order.
#[derive(Debug, Clone, Default)]
pub struct OutputContext {
    next_expected: u32,
    pending: BTreeMap<u32, DecodedFrame>,
    /// Frames emitted so far, in display order.
    pub emitted: Vec<DecodedFrame>,
}

impl OutputContext {
    /// Create an empty output context.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of frames emitted in order so far.
    pub fn emitted_count(&self) -> usize {
        self.emitted.len()
    }

    /// Number of frames waiting in the reorder buffer.
    pub fn pending_count(&self) -> usize {
        self.pending.len()
    }
}

/// Output stage: insert the frame into the reorder buffer and emit every
/// frame that is now in order. Mirrors `output_task(oc, &pic)`.
pub fn output_frame(oc: &mut OutputContext, frame: DecodedFrame) {
    oc.pending.insert(frame.frame_num, frame);
    while let Some(f) = oc.pending.remove(&oc.next_expected) {
        oc.emitted.push(f);
        oc.next_expected += 1;
    }
}

/// All five contexts plus the hidden buffers, bundled for convenience.
#[derive(Debug)]
pub struct DecoderContexts {
    /// Read-stage context.
    pub rc: ReadContext,
    /// Parse-stage context.
    pub nc: NalContext,
    /// Entropy-decode context.
    pub ec: EntropyContext,
    /// Reconstruction context.
    pub rec: ReconstructContext,
    /// Output context.
    pub oc: OutputContext,
    /// Picture Info Buffer (hidden from dependence analysis in the parallel
    /// variants, protected by critical sections).
    pub pib: PictureInfoBuffer,
    /// Decoded Picture Buffer (likewise hidden).
    pub dpb: DecodedPictureBuffer,
}

impl DecoderContexts {
    /// Create all contexts for decoding `stream` with the given buffer pool
    /// size (the paper uses small fixed pools; `pool` ≥ pipeline depth).
    pub fn new(stream: &EncodedStream, pool: usize) -> Self {
        DecoderContexts {
            rc: ReadContext::new(stream),
            nc: NalContext::new(stream),
            ec: EntropyContext::default(),
            rec: ReconstructContext::default(),
            oc: OutputContext::new(),
            pib: PictureInfoBuffer::new(pool),
            dpb: DecodedPictureBuffer::new(pool, stream.params.width, stream.params.height),
        }
    }
}

/// Sequential reference decoder: runs the five stages frame by frame,
/// exercising the PIB/DPB exactly like the parallel variants do.
pub fn decode_sequence(stream: &EncodedStream, pool: usize) -> Vec<DecodedFrame> {
    let mut ctx = DecoderContexts::new(stream, pool.max(2));
    let mut last_decoded: Option<DecodedFrame> = None;
    while let Some(frame) = read_frame(&mut ctx.rc) {
        let header = parse_header(&mut ctx.nc, &frame);
        let pib_idx = ctx.pib.fetch(header).expect("PIB exhausted");
        let mbs = entropy_decode_frame(&mut ctx.ec, &frame, &header);
        let dpb_idx = ctx.dpb.fetch(header.frame_num).expect("DPB exhausted");
        let decoded = reconstruct_frame(&mut ctx.rec, &header, &mbs, last_decoded.as_ref());
        ctx.dpb.store(dpb_idx, decoded.clone());
        output_frame(&mut ctx.oc, decoded.clone());
        last_decoded = Some(decoded);
        ctx.pib.release(pib_idx);
        ctx.dpb.release(dpb_idx);
    }
    ctx.oc.emitted
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::h264::model::{encode_sequence, generate_video, VideoParams};

    fn params() -> VideoParams {
        VideoParams {
            width: 48,
            height: 32,
            frames: 7,
            gop: 3,
            seed: 5,
        }
    }

    #[test]
    fn read_stage_recovers_every_frame() {
        let p = params();
        let video = generate_video(&p);
        let stream = encode_sequence(&p, &video);
        let mut rc = ReadContext::new(&stream);
        let mut count = 0;
        while let Some(frame) = read_frame(&mut rc) {
            assert_eq!(frame.frame_num, count);
            count += 1;
        }
        assert_eq!(count, 7);
        assert!(rc.at_eof());
        assert_eq!(rc.frames_read, 7);
        assert!(read_frame(&mut rc).is_none());
    }

    #[test]
    fn parse_stage_fills_dimensions_and_counts() {
        let p = params();
        let video = generate_video(&p);
        let stream = encode_sequence(&p, &video);
        let mut rc = ReadContext::new(&stream);
        let mut nc = NalContext::new(&stream);
        let frame = read_frame(&mut rc).unwrap();
        let header = parse_header(&mut nc, &frame);
        assert_eq!(header.mb_cols, 3);
        assert_eq!(header.mb_rows, 2);
        assert_eq!(header.frame_type, FrameType::Intra);
        assert_eq!(nc.frames_parsed, 1);
    }

    #[test]
    fn decode_of_encode_is_lossless() {
        let p = params();
        let video = generate_video(&p);
        let stream = encode_sequence(&p, &video);
        let decoded = decode_sequence(&stream, 4);
        assert_eq!(decoded.len(), video.len());
        for (d, v) in decoded.iter().zip(video.iter()) {
            assert_eq!(d.frame_num, v.frame_num);
            assert_eq!(d.pixels, v.pixels, "frame {} mismatch", v.frame_num);
        }
    }

    #[test]
    fn decode_is_lossless_for_all_intra_and_long_gop() {
        for gop in [1, 100] {
            let p = VideoParams { gop, ..params() };
            let video = generate_video(&p);
            let stream = encode_sequence(&p, &video);
            let decoded = decode_sequence(&stream, 3);
            for (d, v) in decoded.iter().zip(video.iter()) {
                assert_eq!(d.pixels, v.pixels, "gop {gop}, frame {}", v.frame_num);
            }
        }
    }

    #[test]
    fn reconstruct_rows_compose_whole_frame() {
        let p = params();
        let video = generate_video(&p);
        let stream = encode_sequence(&p, &video);
        let mut rc = ReadContext::new(&stream);
        let mut nc = NalContext::new(&stream);
        let mut ec = EntropyContext::default();
        let frame = read_frame(&mut rc).unwrap();
        let header = parse_header(&mut nc, &frame);
        let mbs = entropy_decode_frame(&mut ec, &frame, &header);
        let mut whole = vec![0u8; p.width * p.height];
        reconstruct_mb_rows(&header, &mbs, None, 0..header.mb_rows, &mut whole);
        // Row-by-row reconstruction into a second buffer gives the same
        // pixels.
        let mut by_rows = vec![0u8; p.width * p.height];
        for r in 0..header.mb_rows {
            reconstruct_mb_rows(&header, &mbs, None, r..r + 1, &mut by_rows);
        }
        assert_eq!(whole, by_rows);
        assert_eq!(whole, video[0].pixels);
    }

    #[test]
    fn output_stage_reorders_frames() {
        let mut oc = OutputContext::new();
        let f = |n: u32| DecodedFrame::new(n, 16, 16);
        output_frame(&mut oc, f(1));
        assert_eq!(oc.emitted_count(), 0);
        assert_eq!(oc.pending_count(), 1);
        output_frame(&mut oc, f(0));
        assert_eq!(oc.emitted_count(), 2);
        output_frame(&mut oc, f(3));
        output_frame(&mut oc, f(2));
        assert_eq!(oc.emitted_count(), 4);
        let order: Vec<u32> = oc.emitted.iter().map(|x| x.frame_num).collect();
        assert_eq!(order, vec![0, 1, 2, 3]);
    }

    #[test]
    fn entropy_stage_counts_macroblocks() {
        let p = params();
        let video = generate_video(&p);
        let stream = encode_sequence(&p, &video);
        let mut rc = ReadContext::new(&stream);
        let mut nc = NalContext::new(&stream);
        let mut ec = EntropyContext::default();
        let frame = read_frame(&mut rc).unwrap();
        let header = parse_header(&mut nc, &frame);
        let mbs = entropy_decode_frame(&mut ec, &frame, &header);
        assert_eq!(mbs.len(), 6);
        assert_eq!(ec.mbs_decoded, 6);
    }

    #[test]
    fn decoder_contexts_pool_sizes() {
        let p = params();
        let video = generate_video(&p);
        let stream = encode_sequence(&p, &video);
        let ctx = DecoderContexts::new(&stream, 5);
        assert_eq!(ctx.pib.capacity(), 5);
        assert_eq!(ctx.dpb.capacity(), 5);
    }
}
