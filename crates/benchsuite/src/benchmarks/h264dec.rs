//! `h264dec`: the synthetic 5-stage video decoder.
//!
//! * The **Pthreads** variant is a hand-rolled thread-per-stage pipeline
//!   over bounded queues (`threadkit::Pipeline`).
//! * The **OmpSs** variant ([`run_ompss`]) uses the runtime's *automatic*
//!   renaming: each inter-stage buffer is a single versioned handle, and
//!   the per-iteration `output` access renames it to a fresh version, so
//!   iterations decouple without any manual buffer management. `inout`
//!   context arguments keep each stage in order across frames, `taskwait
//!   on` the read context detects end-of-stream, and `critical` sections
//!   protect the Picture Info Buffer and Decoded Picture Buffer, which are
//!   hidden from the dependence system.
//! * The **manual** variant ([`run_ompss_manual`]) reproduces Listing 1 of
//!   the paper verbatim: circular buffers (`RenameRing`) of depth `N`
//!   renamed by hand, kept as the comparison baseline for the
//!   `rename_ablation` harness.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use kernels::h264::{
    decode_sequence, encode_sequence, entropy_decode_frame, generate_video, output_frame,
    parse_header, read_frame, reconstruct_frame, DecodedFrame, DecodedPictureBuffer, EncodedFrame,
    EncodedStream, EntropyContext, FrameHeader, MacroblockSyntax, NalContext, OutputContext,
    PictureInfoBuffer, ReadContext, ReconstructContext, VideoParams,
};
use ompss::{Data, RenameRing, Runtime, TaskContext};
use parking_lot::Mutex;
use threadkit::Pipeline;

/// Parameters of the h264dec benchmark.
#[derive(Debug, Clone, PartialEq)]
pub struct Params {
    /// Video sequence parameters (the stream is generated and encoded from
    /// them).
    pub video: VideoParams,
    /// Depth of the circular buffers / pipeline window (the `N` of
    /// Listing 1).
    pub window: usize,
    /// Size of the PIB/DPB pools.
    pub pool: usize,
}

impl Params {
    /// Small instance for correctness tests.
    pub fn small() -> Self {
        Params {
            video: VideoParams {
                width: 48,
                height: 32,
                frames: 10,
                gop: 4,
                seed: 19,
            },
            window: 4,
            pool: 8,
        }
    }

    /// Larger instance for timing runs.
    pub fn large() -> Self {
        Params {
            video: VideoParams {
                width: 320,
                height: 192,
                frames: 48,
                gop: 8,
                seed: 19,
            },
            window: 6,
            pool: 10,
        }
    }

    /// Generate and encode the input stream.
    pub fn stream(&self) -> EncodedStream {
        let video = generate_video(&self.video);
        encode_sequence(&self.video, &video)
    }
}

fn frames_checksum(frames: &[DecodedFrame]) -> u64 {
    let mut bytes = Vec::new();
    for f in frames {
        bytes.extend_from_slice(&f.frame_num.to_le_bytes());
        bytes.extend_from_slice(&f.checksum().to_le_bytes());
    }
    kernels::image::fletcher64(&bytes)
}

/// Sequential variant: the reference decoder from the kernels crate.
pub fn run_seq(p: &Params) -> u64 {
    let stream = p.stream();
    let decoded = decode_sequence(&stream, p.pool);
    frames_checksum(&decoded)
}

/// Work item flowing through the Pthreads pipeline: fields are filled in by
/// successive stages.
struct PipeItem {
    encoded: EncodedFrame,
    header: Option<FrameHeader>,
    mbs: Vec<MacroblockSyntax>,
    decoded: Option<DecodedFrame>,
}

/// Pthreads-style variant: a thread per pipeline stage, connected by bounded
/// queues of depth `window`. The read stage is the pipeline source (the main
/// thread), the output stage collects frames from the sink in order.
pub fn run_pthreads(p: &Params, _threads: usize) -> u64 {
    let stream = p.stream();
    let mut rc = ReadContext::new(&stream);
    let mut frames = Vec::new();
    while let Some(f) = read_frame(&mut rc) {
        frames.push(PipeItem {
            encoded: f,
            header: None,
            mbs: Vec::new(),
            decoded: None,
        });
    }

    let mut nc = NalContext::new(&stream);
    let pib = Arc::new(Mutex::new(PictureInfoBuffer::new(p.pool)));
    let pib_parse = pib.clone();
    let mut ec = EntropyContext::default();
    let mut rec_ctx = ReconstructContext::default();
    let mut last_decoded: Option<DecodedFrame> = None;
    let dpb = Arc::new(Mutex::new(DecodedPictureBuffer::new(
        p.pool,
        stream.params.width,
        stream.params.height,
    )));
    let dpb_rec = dpb.clone();

    let pipeline = Pipeline::new(p.window)
        .stage("parse", move |mut item: PipeItem| {
            let header = parse_header(&mut nc, &item.encoded);
            // Claim and immediately release a PIB slot, as the real decoder
            // does per frame (the pool bounds the frames in flight).
            let idx = pib_parse.lock().fetch(header).expect("PIB exhausted");
            item.header = Some(header);
            pib_parse.lock().release(idx);
            item
        })
        .stage("entropy", move |mut item: PipeItem| {
            let header = item.header.expect("parse stage ran first");
            item.mbs = entropy_decode_frame(&mut ec, &item.encoded, &header);
            item
        })
        .stage("reconstruct", move |mut item: PipeItem| {
            let header = item.header.expect("parse stage ran first");
            let idx = dpb_rec
                .lock()
                .fetch(header.frame_num)
                .expect("DPB exhausted");
            let decoded =
                reconstruct_frame(&mut rec_ctx, &header, &item.mbs, last_decoded.as_ref());
            dpb_rec.lock().store(idx, decoded.clone());
            last_decoded = Some(decoded.clone());
            item.decoded = Some(decoded);
            dpb_rec.lock().release(idx);
            item
        });
    let (items, _stats) = pipeline.run(frames);

    let mut oc = OutputContext::new();
    for item in items {
        output_frame(&mut oc, item.decoded.expect("reconstruct stage ran"));
    }
    frames_checksum(&oc.emitted)
}

/// Shared decoder state used by the OmpSs variants' tasks (the contexts of
/// Listing 1). The read context carries an EOF flag the main loop polls
/// after `taskwait on (*rc)`.
struct OmpssReadState {
    rc: ReadContext,
    eof: Arc<AtomicBool>,
}

/// What every OmpSs variant's frame loop shares: the stage contexts, each an
/// `inout` dependence that serialises its stage across iterations (plain
/// handles — an in-place update chain gains nothing from versioning), the
/// EOF flag, and the hidden Picture Info and Decoded Picture Buffers,
/// protected by critical sections inside task bodies.
struct Contexts {
    eof: Arc<AtomicBool>,
    rc: Data<OmpssReadState>,
    nc: Data<NalContext>,
    ec: Data<EntropyContext>,
    rec: Data<(ReconstructContext, Option<DecodedFrame>)>,
    oc: Data<OutputContext>,
    pib: Arc<Mutex<PictureInfoBuffer>>,
    dpb: Arc<Mutex<DecodedPictureBuffer>>,
}

impl Contexts {
    fn new(stream: &EncodedStream, pool: usize, rt: &Runtime) -> Self {
        let eof = Arc::new(AtomicBool::new(false));
        Contexts {
            rc: rt.data(OmpssReadState {
                rc: ReadContext::new(stream),
                eof: eof.clone(),
            }),
            eof,
            nc: rt.data(NalContext::new(stream)),
            ec: rt.data(EntropyContext::default()),
            rec: rt.data((ReconstructContext::default(), None::<DecodedFrame>)),
            oc: rt.data(OutputContext::new()),
            pib: Arc::new(Mutex::new(PictureInfoBuffer::new(pool))),
            dpb: Arc::new(Mutex::new(DecodedPictureBuffer::new(
                pool,
                stream.params.width,
                stream.params.height,
            ))),
        }
    }

    fn eof(&self) -> bool {
        self.eof.load(Ordering::SeqCst)
    }

    /// Wait for the last task, then checksum what the output stage emitted.
    fn finish(self, rt: &Runtime) -> u64 {
        rt.taskwait();
        frames_checksum(&rt.fetch(&self.oc).emitted)
    }
}

// The five stage bodies, shared by every OmpSs variant: each variant
// declares the clauses (over versioned handles, a manual ring's slots, or
// recorded into a template) and its task closures call these.

/// `task inout(*rc) output(*frm)`: read the next frame, or raise EOF.
fn read_stage(ctx: &TaskContext<'_>, rc: &Data<OmpssReadState>, frm: &Data<Option<EncodedFrame>>) {
    let mut state = ctx.write(rc);
    let frame = read_frame(&mut state.rc);
    if frame.is_none() {
        state.eof.store(true, Ordering::SeqCst);
    }
    *ctx.write(frm) = frame;
}

/// `task inout(*nc) input(*frm) output(*s)`: parse the slice header. Fetch
/// and release of the hidden Picture Info Buffer are protected by a critical
/// section, not by dependences.
fn parse_stage(
    ctx: &TaskContext<'_>,
    nc: &Data<NalContext>,
    frm: &Data<Option<EncodedFrame>>,
    slice: &Data<Option<FrameHeader>>,
    pib: &Mutex<PictureInfoBuffer>,
) {
    let frame = ctx.read(frm);
    let Some(frame) = frame.as_ref() else {
        *ctx.write(slice) = None;
        return;
    };
    let mut nal = ctx.write(nc);
    let header = parse_header(&mut nal, frame);
    let idx = ctx.critical("pib", || pib.lock().fetch(header));
    *ctx.write(slice) = Some(header);
    if let Some(idx) = idx {
        ctx.critical("pib", || pib.lock().release(idx));
    }
}

/// `task inout(*ec) input(*frm, *s) output(*ed_buf)`: entropy-decode the
/// frame's macroblocks.
fn entropy_stage(
    ctx: &TaskContext<'_>,
    ec: &Data<EntropyContext>,
    frm: &Data<Option<EncodedFrame>>,
    slice: &Data<Option<FrameHeader>>,
    ed: &Data<Vec<MacroblockSyntax>>,
) {
    let frame = ctx.read(frm);
    let header = ctx.read(slice);
    let (Some(frame), Some(header)) = (frame.as_ref(), header.as_ref()) else {
        ctx.write(ed).clear();
        return;
    };
    let mut entropy = ctx.write(ec);
    *ctx.write(ed) = entropy_decode_frame(&mut entropy, frame, header);
}

/// `task inout(*rec) input(*s, *ed_buf) output(*pic)`: reconstruct the
/// picture, storing it in the hidden Decoded Picture Buffer under a
/// critical section.
fn reconstruct_stage(
    ctx: &TaskContext<'_>,
    rec: &Data<(ReconstructContext, Option<DecodedFrame>)>,
    slice: &Data<Option<FrameHeader>>,
    ed: &Data<Vec<MacroblockSyntax>>,
    pic: &Data<Option<DecodedFrame>>,
    dpb: &Mutex<DecodedPictureBuffer>,
) {
    let header = ctx.read(slice);
    let Some(header) = header.as_ref() else {
        *ctx.write(pic) = None;
        return;
    };
    let mbs = ctx.read(ed);
    let mut state = ctx.write(rec);
    let idx = ctx.critical("dpb", || dpb.lock().fetch(header.frame_num));
    let (rec_ctx, last) = &mut *state;
    let decoded = reconstruct_frame(rec_ctx, header, &mbs, last.as_ref());
    if let Some(idx) = idx {
        ctx.critical("dpb", || {
            let mut pool = dpb.lock();
            pool.store(idx, decoded.clone());
            pool.release(idx);
        });
    }
    *last = Some(decoded.clone());
    *ctx.write(pic) = Some(decoded);
}

/// `task inout(*oc) input(*pic)`: emit the picture in order.
fn output_stage(ctx: &TaskContext<'_>, oc: &Data<OutputContext>, pic: &Data<Option<DecodedFrame>>) {
    let pic = ctx.read(pic);
    if let Some(pic) = pic.as_ref() {
        let mut out = ctx.write(oc);
        output_frame(&mut out, pic.clone());
    }
}

/// OmpSs-style variant using the runtime's automatic renaming: the
/// inter-stage buffers are versioned handles, and every iteration's
/// `output` access renames them to fresh versions — the runtime does what
/// Listing 1 does by hand with circular buffers. The in-flight window is
/// bounded by the runtime's per-handle version bound
/// (`RuntimeConfig::rename_max_versions`) rather than a ring depth.
pub fn run_ompss(p: &Params, rt: &Runtime) -> u64 {
    decode_ompss(&p.stream(), p.pool, rt)
}

/// Decode-only core of [`run_ompss`], for harnesses that pre-build the
/// stream (stream generation would otherwise dominate the measurement).
pub fn decode_ompss(stream: &EncodedStream, pool: usize, rt: &Runtime) -> u64 {
    let cx = Contexts::new(stream, pool, rt);
    // The inter-stage buffers: one versioned handle each. `output` accesses
    // rename them per iteration (no RenameRing, no window bookkeeping).
    let frm = rt.versioned_data::<Option<EncodedFrame>>(None);
    let slice = rt.versioned_data::<Option<FrameHeader>>(None);
    let ed = rt.versioned_data(Vec::<MacroblockSyntax>::new());
    let pic = rt.versioned_data::<Option<DecodedFrame>>(None);

    while !cx.eof() {
        {
            let (rc, frm) = (cx.rc.clone(), frm.clone());
            rt.task()
                .name("h264_read")
                .inout(&rc)
                .output(&frm)
                .spawn(move |ctx| read_stage(ctx, &rc, &frm));
        }
        {
            let (nc, frm, slice, pib) = (cx.nc.clone(), frm.clone(), slice.clone(), cx.pib.clone());
            rt.task()
                .name("h264_parse")
                .inout(&nc)
                .input(&frm)
                .output(&slice)
                .spawn(move |ctx| parse_stage(ctx, &nc, &frm, &slice, &pib));
        }
        {
            let (ec, frm, slice, ed) = (cx.ec.clone(), frm.clone(), slice.clone(), ed.clone());
            rt.task()
                .name("h264_entropy")
                .inout(&ec)
                .input(&frm)
                .input(&slice)
                .output(&ed)
                .spawn(move |ctx| entropy_stage(ctx, &ec, &frm, &slice, &ed));
        }
        {
            let (rec, slice, ed) = (cx.rec.clone(), slice.clone(), ed.clone());
            let (pic, dpb) = (pic.clone(), cx.dpb.clone());
            rt.task()
                .name("h264_reconstruct")
                .inout(&rec)
                .input(&slice)
                .input(&ed)
                .output(&pic)
                .spawn(move |ctx| reconstruct_stage(ctx, &rec, &slice, &ed, &pic, &dpb));
        }
        {
            let (oc, pic) = (cx.oc.clone(), pic.clone());
            rt.task()
                .name("h264_output")
                .inout(&oc)
                .input(&pic)
                .spawn(move |ctx| output_stage(ctx, &oc, &pic));
        }

        // taskwait on (*rc): only the read must have finished before the
        // EOF condition of the while loop is evaluated.
        rt.taskwait_on(&cx.rc);
    }
    cx.finish(rt)
}

/// Captured variant of the frame loop (`h264dec-cap`): the 5-task pipeline
/// iteration is captured once — frame 0 — and every subsequent frame is
/// stamped with `Runtime::replay`. The inter-stage buffers are versioned
/// handles, so each pass re-resolves its clauses and renames as usual
/// (renaming and pre-wiring are mutually exclusive, so this template never
/// freezes); what replay amortises is the spawn path itself: recipes arm
/// recycled slab nodes directly — no builders, no per-task body boxing —
/// and each frame costs one batched gate acquisition and one scheduler
/// wakeup instead of five of each.
pub fn run_ompss_captured(p: &Params, rt: &Runtime) -> u64 {
    decode_ompss_captured(&p.stream(), p.pool, rt)
}

/// Decode-only core of [`run_ompss_captured`], for harnesses that pre-build
/// the stream.
pub fn decode_ompss_captured(stream: &EncodedStream, pool: usize, rt: &Runtime) -> u64 {
    let cx = Contexts::new(stream, pool, rt);
    let frm = rt.versioned_data::<Option<EncodedFrame>>(None);
    let slice = rt.versioned_data::<Option<FrameHeader>>(None);
    let ed = rt.versioned_data(Vec::<MacroblockSyntax>::new());
    let pic = rt.versioned_data::<Option<DecodedFrame>>(None);

    // Capture frame 0's pipeline iteration (the tasks run as they record).
    let template = {
        let mut scope = rt.capture();
        {
            let (rc, frm) = (cx.rc.clone(), frm.clone());
            scope
                .task()
                .name("h264_read")
                .inout(&rc)
                .output(&frm)
                .spawn(move |ctx| read_stage(ctx, &rc, &frm));
        }
        {
            let (nc, frm, slice, pib) = (cx.nc.clone(), frm.clone(), slice.clone(), cx.pib.clone());
            scope
                .task()
                .name("h264_parse")
                .inout(&nc)
                .input(&frm)
                .output(&slice)
                .spawn(move |ctx| parse_stage(ctx, &nc, &frm, &slice, &pib));
        }
        {
            let (ec, frm, slice, ed) = (cx.ec.clone(), frm.clone(), slice.clone(), ed.clone());
            scope
                .task()
                .name("h264_entropy")
                .inout(&ec)
                .input(&frm)
                .input(&slice)
                .output(&ed)
                .spawn(move |ctx| entropy_stage(ctx, &ec, &frm, &slice, &ed));
        }
        {
            let (rec, slice, ed) = (cx.rec.clone(), slice.clone(), ed.clone());
            let (pic, dpb) = (pic.clone(), cx.dpb.clone());
            scope
                .task()
                .name("h264_reconstruct")
                .inout(&rec)
                .input(&slice)
                .input(&ed)
                .output(&pic)
                .spawn(move |ctx| reconstruct_stage(ctx, &rec, &slice, &ed, &pic, &dpb));
        }
        {
            let (oc, pic) = (cx.oc.clone(), pic.clone());
            scope
                .task()
                .name("h264_output")
                .inout(&oc)
                .input(&pic)
                .spawn(move |ctx| output_stage(ctx, &oc, &pic));
        }
        scope.finish()
    };

    // Frames 1..EOF: one replay per frame, exactly the fresh-spawn loop
    // with the five spawns collapsed into one stamp.
    let bindings = ompss::ReplayBindings::new();
    rt.taskwait_on(&cx.rc);
    while !cx.eof() {
        rt.replay(&template, &bindings);
        rt.taskwait_on(&cx.rc);
    }
    cx.finish(rt)
}

/// OmpSs-style variant following Listing 1 verbatim: manual renaming with
/// circular buffers of depth `p.window`. Kept as the baseline the
/// `rename_ablation` harness compares automatic renaming against.
pub fn run_ompss_manual(p: &Params, rt: &Runtime) -> u64 {
    decode_ompss_manual(&p.stream(), p.window, p.pool, rt)
}

/// Decode-only core of [`run_ompss_manual`], for harnesses that pre-build
/// the stream.
pub fn decode_ompss_manual(
    stream: &EncodedStream,
    window: usize,
    pool: usize,
    rt: &Runtime,
) -> u64 {
    let n = window;
    let cx = Contexts::new(stream, pool, rt);

    // Circular buffers of depth N (the manual renaming of Listing 1).
    let frm: RenameRing<Option<EncodedFrame>> = RenameRing::with_default(n);
    let slices: RenameRing<Option<FrameHeader>> = RenameRing::with_default(n);
    let ed_bufs: RenameRing<Vec<MacroblockSyntax>> = RenameRing::with_default(n);
    let pics: RenameRing<Option<DecodedFrame>> = RenameRing::with_default(n);

    let mut k = 0usize;
    while !cx.eof() {
        let frm_k = frm.slot(k).clone();
        let slice_k = slices.slot(k).clone();
        let ed_k = ed_bufs.slot(k).clone();
        let pic_k = pics.slot(k).clone();

        // #pragma omp task inout(*rc) output(*frm)
        {
            let (rc, frm_k) = (cx.rc.clone(), frm_k.clone());
            rt.task()
                .name("h264_read")
                .inout(&rc)
                .output(&frm_k)
                .spawn(move |ctx| read_stage(ctx, &rc, &frm_k));
        }
        // #pragma omp task inout(*nc) input(*frm) output(*s)
        {
            let (nc, frm_k, slice_k) = (cx.nc.clone(), frm_k.clone(), slice_k.clone());
            let pib = cx.pib.clone();
            rt.task()
                .name("h264_parse")
                .inout(&nc)
                .input(&frm_k)
                .output(&slice_k)
                .spawn(move |ctx| parse_stage(ctx, &nc, &frm_k, &slice_k, &pib));
        }
        // #pragma omp task inout(*ec) input(*frm, *s) output(*ed_buf)
        {
            let (ec, frm_k) = (cx.ec.clone(), frm_k.clone());
            let (slice_k, ed_k) = (slice_k.clone(), ed_k.clone());
            rt.task()
                .name("h264_entropy")
                .inout(&ec)
                .input(&frm_k)
                .input(&slice_k)
                .output(&ed_k)
                .spawn(move |ctx| entropy_stage(ctx, &ec, &frm_k, &slice_k, &ed_k));
        }
        // #pragma omp task inout(*rec) input(*s, *ed_buf) output(*pic)
        {
            let (rec, slice_k, ed_k) = (cx.rec.clone(), slice_k.clone(), ed_k.clone());
            let (pic_k, dpb) = (pic_k.clone(), cx.dpb.clone());
            rt.task()
                .name("h264_reconstruct")
                .inout(&rec)
                .input(&slice_k)
                .input(&ed_k)
                .output(&pic_k)
                .spawn(move |ctx| reconstruct_stage(ctx, &rec, &slice_k, &ed_k, &pic_k, &dpb));
        }
        // #pragma omp task inout(*oc) input(*pic)
        {
            let (oc, pic_k) = (cx.oc.clone(), pic_k.clone());
            rt.task()
                .name("h264_output")
                .inout(&oc)
                .input(&pic_k)
                .spawn(move |ctx| output_stage(ctx, &oc, &pic_k));
        }

        k += 1;
        // #pragma omp taskwait on (*rc): only the read must have finished
        // before the EOF condition of the while loop is evaluated.
        rt.taskwait_on(&cx.rc);
    }
    cx.finish(rt)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ompss::RuntimeConfig;

    #[test]
    fn all_variants_agree() {
        let p = Params::small();
        let seq = run_seq(&p);
        assert_eq!(run_pthreads(&p, 2), seq);
        let rt = Runtime::new(RuntimeConfig::default().with_workers(2));
        assert_eq!(run_ompss(&p, &rt), seq, "automatic renaming variant");
        assert_eq!(run_ompss_manual(&p, &rt), seq, "manual RenameRing variant");
    }

    #[test]
    fn captured_frame_loop_matches_and_stays_unfrozen() {
        let p = Params::small();
        let seq = run_seq(&p);
        let rt = Runtime::new(RuntimeConfig::default().with_workers(2));
        assert_eq!(run_ompss_captured(&p, &rt), seq);
        // The pipeline buffers are versioned, so every replayed frame
        // re-resolved (and renamed) — the captured loop must not have taken
        // the pre-wired path, which would bake away the renaming.
        let stats = rt.stats();
        assert!(
            (stats.renames + stats.renames_elided) as usize >= p.video.frames,
            "each replayed frame still renames (or elides on) the buffers, \
             got {} renames + {} elided",
            stats.renames,
            stats.renames_elided
        );
    }

    #[test]
    fn automatic_renaming_actually_renames() {
        let p = Params::small();
        let rt = Runtime::new(RuntimeConfig::default().with_workers(2));
        let seq = run_seq(&p);
        assert_eq!(run_ompss(&p, &rt), seq);
        let stats = rt.stats();
        // Every frame rebinds the inter-stage buffers: either to a freshly
        // renamed version (a consumer still held the old one) or — when the
        // previous round had fully retired — by eliding the rename and
        // overwriting in place. Both decouple the iterations.
        assert!(
            (stats.renames + stats.renames_elided) as usize >= p.video.frames,
            "each frame renames (or elides on) the inter-stage buffers, got {} renames + {} elided",
            stats.renames,
            stats.renames_elided
        );
    }

    #[test]
    fn elision_disabled_renames_every_rebinding() {
        // With first-write elision off, every decoupled `output` rebinding
        // must allocate (or recycle) a version — the pre-elision behaviour.
        let p = Params::small();
        let rt = Runtime::new(
            RuntimeConfig::default()
                .with_workers(2)
                .with_rename_elision(false),
        );
        let seq = run_seq(&p);
        assert_eq!(run_ompss(&p, &rt), seq);
        let stats = rt.stats();
        assert_eq!(stats.renames_elided, 0);
        assert!(
            stats.renames as usize >= p.video.frames,
            "each frame renames the inter-stage buffers, got {} renames",
            stats.renames
        );
    }

    #[test]
    fn renaming_disabled_still_decodes_correctly() {
        // With renaming off the versioned buffers serialise on WAR/WAW —
        // slower, but the output must be identical.
        let p = Params::small();
        let seq = run_seq(&p);
        let rt = Runtime::new(
            RuntimeConfig::default()
                .with_workers(2)
                .with_renaming(false),
        );
        assert_eq!(run_ompss(&p, &rt), seq);
        assert_eq!(rt.stats().renames, 0);
    }

    #[test]
    fn tiny_rename_budget_falls_back_but_stays_correct() {
        let p = Params::small();
        let seq = run_seq(&p);
        let rt = Runtime::new(
            RuntimeConfig::default()
                .with_workers(2)
                .with_rename_memory_cap(64)
                .with_rename_pool_depth(0),
        );
        assert_eq!(run_ompss(&p, &rt), seq);
    }

    #[test]
    fn window_size_does_not_change_the_output() {
        let mut p = Params::small();
        let seq = run_seq(&p);
        let rt = Runtime::new(RuntimeConfig::default().with_workers(3));
        for window in [1, 2, 6] {
            p.window = window;
            assert_eq!(run_ompss_manual(&p, &rt), seq, "window {window}");
        }
    }

    #[test]
    fn decoded_output_matches_the_source_video() {
        // The codec is lossless, so the decoded frames equal the generated
        // ones — a stronger check than cross-variant agreement.
        let p = Params::small();
        let stream = p.stream();
        let source = generate_video(&p.video);
        let decoded = decode_sequence(&stream, p.pool);
        assert_eq!(decoded.len(), source.len());
        for (d, s) in decoded.iter().zip(source.iter()) {
            assert_eq!(d.pixels, s.pixels);
        }
    }
}
