//! `table1.coarse` and `table1.fine`: the ten rows of the paper's Table 1
//! and the two captured-replay companion rows, on one persistent runtime.
//!
//! Both workloads run the same kernels on the same amount of input; they
//! differ only in how the work is cut into tasks. On `coarse` kernel bodies
//! do almost all the work; on `fine` creating, registering, queueing and
//! retiring tasks does.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use benchsuite::benchmarks::{
    bodytrack, cray, h264dec, kmeans, md5, rayrot, rgbcmy, rotate, rotcc, streamcluster,
};
use kernels::bodytrack::FilterConfig;
use kernels::h264::{decode_sequence, VideoParams};
use kernels::image::fletcher64;
use ompss::{Runtime, RuntimeConfig, RuntimeStats};
use simsched::MachineParams;

use crate::calib::HostSpeed;
use crate::layers::{Counts, Observed, Phases};
use crate::span::Spans;
use crate::stats::{geomean, summarize, Summary};
use crate::workload::{Budget, Cfg, Measured, Record, Workload};

/// One row: the three variants of one benchmark on one generated input.
struct Row {
    name: &'static str,
    /// Tasks are stamped by `Runtime::replay`, not spawned one by one.
    replay: bool,
    /// Input generation alone; the `run_*` entry points repeat it inside.
    input: Box<dyn Fn()>,
    seq: Box<dyn Fn() -> u64>,
    pthreads: Option<Box<dyn Fn(usize) -> u64>>,
    ompss: Box<dyn Fn(&Runtime) -> u64>,
}

macro_rules! row {
    ($name:literal, $m:ident, $params:expr, $input:expr) => {
        row!(
            $name,
            $m,
            $params,
            $input,
            run_seq,
            run_pthreads,
            run_ompss,
            false
        )
    };
    ($name:literal, $m:ident, $params:expr, $input:expr,
     $seq:ident, $pthreads:ident, $ompss:ident, $replay:expr) => {{
        let p: $m::Params = $params;
        let (a, b, c, d) = (p.clone(), p.clone(), p.clone(), p);
        let input: fn(&$m::Params) = $input;
        Row {
            name: $name,
            replay: $replay,
            input: Box::new(move || input(&a)),
            seq: Box::new(move || $m::$seq(&b)),
            pthreads: Some(Box::new(move |threads| $m::$pthreads(&c, threads))),
            ompss: Box::new(move |rt| $m::$ompss(&d, rt)),
        }
    }};
}

/// The rows of one workload. Sizes were chosen on the reference host so
/// that a sequential run of a row takes 20 to 60 ms (see the README for the
/// measured task counts and sizes); `quick` divides the input by about 20.
///
/// A row whose benchmark has a granularity field (`band_rows`, `chunk`,
/// `buffer_size`) is cut coarse or fine through it. c-ray and ray-rot make
/// one task per scanline, so their `fine` image is narrow and tall with the
/// same number of pixels. h264dec has no such field: it runs on `coarse`
/// only.
fn rows(cfg: &Cfg, fine: bool) -> Vec<Row> {
    let seed = |i: u64| cfg.seed.wrapping_mul(0x100).wrapping_add(i);
    // `shrink` divides a row's dominant dimension for `--quick`.
    let shrink = |n: usize| if cfg.quick { (n / 20).max(1) } else { n };
    let grain = |coarse: usize, fine_grain: usize| if fine { fine_grain } else { coarse };

    let image_rows = shrink(2048);
    let mut rows = vec![
        row!(
            "c-ray",
            cray,
            if fine {
                cray::Params {
                    width: 16,
                    height: shrink(3072),
                    spheres: 24,
                }
            } else {
                cray::Params {
                    width: 256,
                    height: shrink(192),
                    spheres: 24,
                }
            },
            |_| ()
        ),
        row!(
            "rotate",
            rotate,
            rotate::Params {
                width: 96,
                height: image_rows,
                angle: 0.05,
                band_rows: grain(32, 1),
                seed: seed(1),
            },
            |p| drop(black_box(p.input()))
        ),
        row!(
            "rgbcmy",
            rgbcmy,
            rgbcmy::Params {
                width: 96,
                height: image_rows,
                iterations: 3,
                band_rows: grain(64, 1),
                seed: seed(2),
            },
            |p| drop(black_box(p.input()))
        ),
        row!(
            "md5",
            md5,
            md5::Params {
                buffers: shrink(grain(128, 4_096)),
                buffer_size: grain(32_768, 1_024),
                seed: seed(3),
            },
            |p| drop(black_box(p.input()))
        ),
        row!(
            "kmeans",
            kmeans,
            kmeans::Params {
                points: shrink(20_000),
                dim: 8,
                k: 16,
                iterations: 12,
                chunk: grain(1_000, 50),
                seed: seed(4),
            },
            |p| drop(black_box(p.input()))
        ),
        row!(
            "ray-rot",
            rayrot,
            if fine {
                rayrot::Params {
                    width: 16,
                    height: shrink(1536),
                    spheres: 20,
                    angle: 0.05,
                    band_rows: 1,
                }
            } else {
                rayrot::Params {
                    width: 256,
                    height: shrink(96),
                    spheres: 20,
                    angle: 0.05,
                    band_rows: 16,
                }
            },
            |_| ()
        ),
        row!(
            "rot-cc",
            rotcc,
            rotcc::Params {
                width: 96,
                height: image_rows,
                angle: 0.05,
                band_rows: grain(32, 1),
                seed: seed(6),
            },
            |p| drop(black_box(p.input()))
        ),
        row!(
            "streamcluster",
            streamcluster,
            streamcluster::Params {
                points: shrink(24_000),
                dim: 32,
                facility_cost: 20.0,
                stride: 400,
                max_centers: 32,
                chunk: grain(8_000, 300),
                seed: seed(7),
            },
            |p| drop(black_box(p.input()))
        ),
        row!(
            "bodytrack",
            bodytrack,
            bodytrack::Params {
                filter: FilterConfig {
                    particles: shrink(4_096),
                    joints: 12,
                    layers: 4,
                    base_noise: 0.1,
                    beta: 40.0,
                },
                frames: 8,
                chunk: grain(1_024, 32),
                seed: seed(8),
            },
            |p| drop(black_box(p.observations()))
        ),
        row!(
            "rotate-cap",
            rotate,
            rotate::Params {
                width: 96,
                height: image_rows / 4,
                angle: 0.05,
                band_rows: grain(32, 1),
                seed: seed(10),
            },
            |p| drop(black_box(p.input())),
            run_seq_captured,
            run_pthreads_captured,
            run_ompss_captured,
            true
        ),
    ];
    if !fine {
        rows.extend(h264_rows(cfg, seed(9)));
    }
    rows
}

/// h264dec and its captured companion, timed on a stream built once here:
/// `run_*` would generate and *encode* the video inside the timed call, and
/// that costs more than decoding it. The benchmark has no Pthreads entry
/// that takes a stream, so these rows have no Pthreads time.
fn h264_rows(cfg: &Cfg, seed: u64) -> [Row; 2] {
    let params = h264dec::Params {
        video: VideoParams {
            width: 320,
            height: 192,
            frames: if cfg.quick { 4 } else { 12 },
            gop: 8,
            seed,
        },
        window: 6,
        pool: 10,
    };
    let pool = params.pool;
    let stream = Arc::new(params.stream());
    let row = |name, replay, decode: fn(&kernels::h264::EncodedStream, usize, &Runtime) -> u64| {
        let (params, seq_stream, ompss_stream) = (params.clone(), stream.clone(), stream.clone());
        Row {
            name,
            replay,
            input: Box::new(move || drop(black_box(params.stream()))),
            seq: Box::new(move || {
                let mut bytes = Vec::new();
                for frame in decode_sequence(&seq_stream, pool) {
                    bytes.extend_from_slice(&frame.frame_num.to_le_bytes());
                    bytes.extend_from_slice(&frame.checksum().to_le_bytes());
                }
                fletcher64(&bytes)
            }),
            pthreads: None,
            ompss: Box::new(move |rt| decode(&ompss_stream, pool, rt)),
        }
    };
    [
        row("h264dec", false, h264dec::decode_ompss),
        row("h264dec-cap", true, h264dec::decode_ompss_captured),
    ]
}

/// What set-up learns about a row.
struct RowFacts {
    reference: u64,
    seq_ms: f64,
    tasks: u64,
    taskwaits: u64,
}

#[derive(Default, Clone)]
struct RowSamples {
    ompss_ms: Vec<f64>,
    pthreads_ms: Vec<f64>,
    seq_ms: Vec<f64>,
    input_ms: Vec<f64>,
    cold_ms: Vec<f64>,
}

pub struct Table1 {
    cfg: Cfg,
    fine: bool,
    rows: Vec<Row>,
    facts: Vec<RowFacts>,
    rt: Runtime,
    stats_at_start: RuntimeStats,
    /// Time spent in OmpSs calls on `rt` since it started.
    ompss_ns: u64,
    attempted: u64,
    failed: u64,
}

/// Share of a timed run spent on the OmpSs phase; the rest goes to the
/// Pthreads baseline.
const OMPSS_SHARE: f64 = 0.75;

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Repeat passes over `n` rows until the budget is spent. A pass starts one
/// row later than the one before, so that no row always runs in the same
/// neighbour's wake.
fn passes(n: usize, budget: Budget, mut row: impl FnMut(usize)) {
    let start = Instant::now();
    let mut pass = 0;
    loop {
        for k in 0..n {
            row((k + pass) % n);
        }
        pass += 1;
        let done = match budget {
            Budget::Seconds(s) => start.elapsed().as_secs_f64() >= s,
            Budget::Passes(p) => pass >= p,
        };
        if done {
            return;
        }
    }
}

impl Table1 {
    /// Sequential references and a Pthreads warm-up first, while no runtime
    /// exists whose idle workers would poll beside them; then the runtime
    /// and one warm-up run per row, which fills its slab, queues and tracker
    /// maps and tells how many tasks a run makes.
    pub fn setup(cfg: &Cfg, fine: bool) -> Table1 {
        let rows = rows(cfg, fine);
        let (mut attempted, mut failed) = (0, 0);
        let mut check = |ok: bool| {
            attempted += 1;
            failed += u64::from(!ok);
        };
        let mut facts = Vec::new();
        let mut speed = HostSpeed::new(cfg.threads);
        for row in &rows {
            let at_nominal = speed.factor();
            let start = Instant::now();
            let reference = (row.seq)();
            let seq_ms = ms(start.elapsed()) * at_nominal;
            if let Some(pthreads) = &row.pthreads {
                check(pthreads(cfg.threads) == reference);
            }
            facts.push(RowFacts {
                reference,
                seq_ms,
                tasks: 0,
                taskwaits: 0,
            });
        }
        let rt = Runtime::new(
            RuntimeConfig::default()
                .with_workers(cfg.threads)
                .with_tracing(cfg.traced),
        );
        let stats_at_start = rt.stats();
        let mut ompss_ns = 0;
        for (row, facts) in rows.iter().zip(&mut facts) {
            let before = rt.stats();
            let start = Instant::now();
            check((row.ompss)(&rt) == facts.reference);
            ompss_ns += start.elapsed().as_nanos() as u64;
            let after = rt.stats();
            facts.tasks = after.tasks_spawned - before.tasks_spawned;
            facts.taskwaits = after.taskwaits - before.taskwaits;
        }
        Table1 {
            cfg: *cfg,
            fine,
            rows,
            facts,
            rt,
            stats_at_start,
            ompss_ns,
            attempted,
            failed,
        }
    }
}

/// The simulator's OmpSs-over-Pthreads ratio for a row, if it models it.
fn simulated_speedup(name: &str, threads: usize) -> Option<f64> {
    simsched::benchmark_names().contains(&name).then(|| {
        let (ompss_ns, pthreads_ns) = simsched::table1::simulate_benchmark(
            &simsched::workloads::workload(name),
            threads,
            &MachineParams::default(),
        );
        pthreads_ns as f64 / ompss_ns as f64
    })
}

/// Sum of per-row summaries: the time of one pass over the rows.
fn sum(parts: &[Summary]) -> Summary {
    Summary {
        median: parts.iter().map(|s| s.median).sum(),
        q1: parts.iter().map(|s| s.q1).sum(),
        q3: parts.iter().map(|s| s.q3).sum(),
        n: parts.iter().map(|s| s.n).min().unwrap_or(0),
    }
}

impl Workload for Table1 {
    fn reference(&self) -> u64 {
        let bytes: Vec<u8> = self
            .facts
            .iter()
            .flat_map(|f| f.reference.to_le_bytes())
            .collect();
        fletcher64(&bytes)
    }

    fn measure(self: Box<Self>, budget: Budget, spans: &mut Spans) -> Measured {
        let Table1 {
            cfg,
            fine,
            rows,
            facts,
            rt,
            stats_at_start,
            mut ompss_ns,
            mut attempted,
            mut failed,
        } = *self;
        let mut check = |sum: u64, i: usize| {
            attempted += 1;
            failed += u64::from(sum != facts[i].reference);
        };
        let (ompss_budget, baseline_budget) = match budget {
            Budget::Seconds(s) => (
                Budget::Seconds(s * OMPSS_SHARE),
                Budget::Seconds(s * (1.0 - OMPSS_SHARE)),
            ),
            counted => (counted, counted),
        };
        let mut samples = vec![RowSamples::default(); rows.len()];
        let mut speed = HostSpeed::new(cfg.threads);
        let mut log = spans.log(0);
        let root = log.begin("table1", 0);

        // The OmpSs phase: every row on the one persistent runtime.
        let phase = log.begin("ompss_phase", 0);
        passes(rows.len(), ompss_budget, |i| {
            let at_nominal = speed.factor();
            let (sum, d) = log.time("run_ompss", i as u32, || (rows[i].ompss)(&rt));
            ompss_ns += d.as_nanos() as u64;
            samples[i].ompss_ms.push(ms(d) * at_nominal);
            check(sum, i);
        });
        log.end(phase);
        let observed = Observed {
            counts: Counts::default().gain(&stats_at_start, &rt.stats()),
            phases: Phases::of(&rt.trace()),
        };
        log.time("runtime_shutdown", 0, || rt.shutdown());

        // The baseline phase, with no runtime alive whose idle workers would
        // poll beside the Pthreads threads. The traced pass adds the calls
        // that explain a row: its input generation and sequential run alone,
        // and what `benchsuite::run_benchmark` times, a runtime started and
        // shut down around one run.
        let explain = spans.recording();
        let phase = log.begin("baseline_phase", 0);
        passes(rows.len(), baseline_budget, |i| {
            let (id, row, s) = (i as u32, &rows[i], &mut samples[i]);
            let at_nominal = speed.factor();
            if let Some(pthreads) = &row.pthreads {
                let (sum, d) = log.time("run_pthreads", id, || pthreads(cfg.threads));
                s.pthreads_ms.push(ms(d) * at_nominal);
                check(sum, i);
            }
            if explain {
                let ((), d) = log.time("input_gen", id, || (row.input)());
                s.input_ms.push(ms(d) * at_nominal);
                let (sum, d) = log.time("run_seq", id, || (row.seq)());
                s.seq_ms.push(ms(d) * at_nominal);
                check(sum, i);
                let cold = log.begin("cold_run", id);
                let (rt, _) = log.time("runtime_new", id, || {
                    Runtime::new(RuntimeConfig::default().with_workers(cfg.threads))
                });
                let (sum, _) = log.time("run_ompss", id, || (row.ompss)(&rt));
                log.time("runtime_shutdown", id, || rt.shutdown());
                s.cold_ms.push(ms(log.end(cold)) * at_nominal);
                check(sum, i);
            }
        });
        log.end(phase);
        log.end(root);
        spans.keep(log);

        let mut details = Vec::new();
        let mut fresh = Vec::new();
        let mut replay = Vec::new();
        let mut speedups = Vec::new();
        let mut sim_errors = Vec::new();
        let mut tasks = 0;
        for ((row, facts), s) in rows.iter().zip(&facts).zip(&samples) {
            let ompss = summarize(&s.ompss_ms);
            if row.replay { &mut replay } else { &mut fresh }.push(ompss);
            tasks += facts.tasks;
            let mut rec = |layer, name: &str, unit, summary| {
                details.push(Record::new(layer, name, row.name, unit, summary));
            };
            rec("benchsuite", "ompss_time_ms", "ms", ompss);
            rec(
                "benchsuite",
                "tasks_per_run",
                "count",
                Summary::point(facts.tasks as f64),
            );
            rec(
                "benchsuite",
                "taskwaits_per_run",
                "count",
                Summary::point(facts.taskwaits as f64),
            );
            // The sequential time is sampled once in set-up and once per
            // traced pass; tasks share it evenly.
            let seq = if s.seq_ms.is_empty() {
                Summary::point(facts.seq_ms)
            } else {
                summarize(&s.seq_ms)
            };
            rec("kernels", "seq_time_ms", "ms", seq);
            rec(
                "kernels",
                "mean_task_us",
                "us",
                Summary::point(1e3 * seq.median / facts.tasks as f64),
            );
            rec(
                "benchsuite",
                "speedup_vs_seq",
                "ratio",
                Summary::point(seq.median / ompss.median),
            );
            if !s.pthreads_ms.is_empty() {
                let pthreads = summarize(&s.pthreads_ms);
                let speedup = pthreads.median / ompss.median;
                speedups.push(speedup);
                rec("threadkit", "pthreads_time_ms", "ms", pthreads);
                rec(
                    "benchsuite",
                    "speedup_vs_pthreads",
                    "ratio",
                    Summary::point(speedup),
                );
                if let Some(sim) = simulated_speedup(row.name, cfg.threads).filter(|_| !fine) {
                    sim_errors.push((sim / speedup).ln().abs().exp());
                    rec("simsched", "sim_speedup", "ratio", Summary::point(sim));
                }
            }
            if explain {
                let input = summarize(&s.input_ms);
                rec("kernels", "input_gen_ms", "ms", input);
                rec(
                    "kernels",
                    "parallel_region_ms",
                    "ms",
                    Summary::point((ompss.median - input.median).max(0.0)),
                );
                rec("benchsuite", "cold_run_ms", "ms", summarize(&s.cold_ms));
            }
        }
        let (fresh_ms, replay_ms) = (sum(&fresh), sum(&replay));
        let suite_s = (fresh_ms.median + replay_ms.median) / 1e3;
        let whole = |layer, name: &str, unit, value| {
            Record::new(layer, name, "", unit, Summary::point(value))
        };
        details.push(whole("benchsuite", "suite_time_s", "s", suite_s));
        // The paper's Table 1 cell at T threads. Rows without a Pthreads
        // time (h264dec, h264dec-cap) are left out of it.
        details.push(whole(
            "benchsuite",
            "speedup_vs_pthreads",
            "ratio",
            geomean(&speedups),
        ));
        if !sim_errors.is_empty() {
            details.push(whole(
                "simsched",
                "sim_log_error",
                "ratio",
                geomean(&sim_errors),
            ));
        }
        Measured {
            fresh_ms,
            replay_ms,
            tasks_per_s: tasks as f64 / suite_s,
            attempted,
            failed,
            details,
            observed,
            ompss_ns,
        }
    }
}
