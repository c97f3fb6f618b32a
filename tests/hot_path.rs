//! The task-insertion hot path: first-write rename elision and the optimistic
//! registration fast path under adversarial GC.
//!
//! Three angles:
//!
//! 1. **Elision semantics.** Random chunk-write/read programs over versioned
//!    partitions must produce exactly the sequential final values with
//!    elision on, off, and "mixed" (on, but under a version/budget squeeze
//!    that forces renames, elisions and serialising fallbacks to interleave).
//! 2. **Elision determinism.** A single-pass workload (rotate-shaped: every
//!    chunk written exactly once) must elide *every* rename — zero versions
//!    allocated, zero WAR/WAW edges — deterministically, because workers
//!    release version bindings only after publishing the task's completion.
//! 3. **Fallback under GC.** With the GC cadence forced to every spawn, the
//!    optimistic path keeps falling back to waiting for the gate mid-storm; no
//!    edge may be lost and the tracker must drain clean.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use proptest::prelude::*;

use ompss::{FaultPlan, Runtime, RuntimeConfig};

// ---------------------------------------------------------------------------
// 1. Elision on/off/mixed keeps sequential-value semantics
// ---------------------------------------------------------------------------

/// One step over a versioned partition plus a scalar accumulator per chunk.
#[derive(Debug, Clone)]
enum ChunkOp {
    /// Overwrite chunk `c` with `value` in every element (`output`).
    Fill { c: usize, value: u64 },
    /// Add chunk `c`'s first element into accumulator `c` (`input` chunk,
    /// `inout` accumulator).
    Drain { c: usize },
    /// Bump every element of chunk `c` in place (`inout`).
    Bump { c: usize },
}

fn chunk_op_strategy(chunks: usize) -> impl Strategy<Value = ChunkOp> {
    prop_oneof![
        (0..chunks, 1u64..100).prop_map(|(c, value)| ChunkOp::Fill { c, value }),
        (0..chunks).prop_map(|c| ChunkOp::Drain { c }),
        (0..chunks).prop_map(|c| ChunkOp::Bump { c }),
    ]
}

const CHUNKS: usize = 3;
const CHUNK_LEN: usize = 4;

/// Reference: run the ops sequentially over a plain vector.
fn run_sequential(ops: &[ChunkOp]) -> (Vec<u64>, Vec<u64>) {
    let mut v = vec![0u64; CHUNKS * CHUNK_LEN];
    let mut accs = vec![0u64; CHUNKS];
    for op in ops {
        match *op {
            ChunkOp::Fill { c, value } => v[c * CHUNK_LEN..(c + 1) * CHUNK_LEN].fill(value),
            ChunkOp::Drain { c } => accs[c] = accs[c].wrapping_add(v[c * CHUNK_LEN]),
            ChunkOp::Bump { c } => {
                for x in &mut v[c * CHUNK_LEN..(c + 1) * CHUNK_LEN] {
                    *x = x.wrapping_add(1);
                }
            }
        }
    }
    (v, accs)
}

fn run_tasked(config: RuntimeConfig, ops: &[ChunkOp]) -> (Vec<u64>, Vec<u64>) {
    let rt = Runtime::new(config);
    let part = rt.versioned_partitioned(vec![0u64; CHUNKS * CHUNK_LEN], CHUNK_LEN);
    let accs: Vec<_> = (0..CHUNKS).map(|_| rt.data(0u64)).collect();
    for op in ops {
        match *op {
            ChunkOp::Fill { c, value } => {
                let chunk = part.chunk(c);
                rt.task().output(&chunk).spawn(move |ctx| {
                    ctx.write_chunk(&chunk).fill(value);
                });
            }
            ChunkOp::Drain { c } => {
                let chunk = part.chunk(c);
                let acc = accs[c].clone();
                rt.task().input(&chunk).inout(&acc).spawn(move |ctx| {
                    let first = ctx.read_chunk(&chunk)[0];
                    let mut a = ctx.write(&acc);
                    *a = a.wrapping_add(first);
                });
            }
            ChunkOp::Bump { c } => {
                let chunk = part.chunk(c);
                rt.task().inout(&chunk).spawn(move |ctx| {
                    for x in ctx.write_chunk(&chunk).iter_mut() {
                        *x = x.wrapping_add(1);
                    }
                });
            }
        }
    }
    rt.taskwait();
    let accs_out = accs.iter().map(|a| rt.fetch(a)).collect();
    let out = rt.into_vec(part);
    rt.shutdown();
    (out, accs_out)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Sequential-value semantics hold with elision on, off, and mixed with
    /// renames/fallbacks (tight version window and recycle pool).
    #[test]
    fn elision_on_off_mixed_keeps_sequential_semantics(
        ops in proptest::collection::vec(chunk_op_strategy(CHUNKS), 1..40),
    ) {
        let expected = run_sequential(&ops);
        let base = RuntimeConfig::default().with_workers(3);
        let on = run_tasked(base.clone().with_rename_elision(true), &ops);
        prop_assert_eq!(&on, &expected, "elision on");
        let off = run_tasked(base.clone().with_rename_elision(false), &ops);
        prop_assert_eq!(&off, &expected, "elision off");
        // "Mixed": elision enabled but squeezed — at most 2 live versions
        // per chunk and no recycle pool, so outputs alternate between
        // eliding, renaming and serialising fallbacks depending on timing.
        let mixed = run_tasked(
            base.with_rename_elision(true)
                .with_rename_max_versions(2)
                .with_rename_pool_depth(0),
            &ops,
        );
        prop_assert_eq!(&mixed, &expected, "elision mixed with fallbacks");
    }
}

// ---------------------------------------------------------------------------
// 1b. One chain: a `Data` and a one-chunk partition version identically
// ---------------------------------------------------------------------------
//
// A versioned `Data<u64>` is one version chain; a versioned partition of one
// one-element chunk is one version chain too. The same clause program must
// therefore take the same decision at every clause — bind, elide, rename,
// recycle, fall back, un-elide — on either, whatever the renaming knobs say.
// Bodies are gated per round, so nothing completes (and no binding is
// released) while a round is being declared: every decision is then a pure
// function of the program, and the counters can be compared exactly.

/// What a parity task declares on the subject handle (at most one writing
/// clause — two would be a write clash). Every reading task also declares
/// `inout` on a plain accumulator and folds what it read into it.
#[derive(Debug, Clone, Copy)]
enum Clauses {
    In,
    Out(u64),
    InOut,
    Conc(u64),
    /// `input` then `output`: reads the previous version, writes a fresh one.
    InThenOut(u64),
    /// `output` then `input`: the un-elision corner.
    OutThenIn(u64),
}

#[derive(Debug, Clone, Copy)]
struct Step {
    clauses: Clauses,
    /// Declare the clauses, then drop the builder unspawned.
    abandoned: bool,
    /// Open the gate and drain after this step (later steps then meet
    /// released bindings, reclaimed versions and a stocked recycle pool).
    drain_after: bool,
}

fn step_strategy() -> impl Strategy<Value = Step> {
    let clauses = prop_oneof![
        Just(Clauses::In),
        (1u64..50).prop_map(Clauses::Out),
        Just(Clauses::InOut),
        (1u64..9).prop_map(Clauses::Conc),
        (1u64..50).prop_map(Clauses::InThenOut),
        (1u64..50).prop_map(Clauses::OutThenIn),
    ];
    (clauses, 0u8..6, 0u8..5).prop_map(|(clauses, a, d)| Step {
        clauses,
        abandoned: a == 0,
        drain_after: d == 0,
    })
}

impl Clauses {
    /// Whether the task reads the subject (and folds it into the
    /// accumulator).
    fn reads(self) -> bool {
        matches!(
            self,
            Clauses::In | Clauses::InThenOut(_) | Clauses::OutThenIn(_)
        )
    }

    /// The value a writing task leaves in the subject, given the one it
    /// found there.
    fn written(self, x: u64) -> Option<u64> {
        match self {
            Clauses::In => None,
            Clauses::Out(v) | Clauses::InThenOut(v) | Clauses::OutThenIn(v) => Some(v),
            Clauses::InOut => Some(x.wrapping_mul(3).wrapping_add(1)),
            Clauses::Conc(k) => Some(x.wrapping_add(k)),
        }
    }
}

/// Sequential semantics of a parity program: (subject, accumulator).
fn parity_sequential(steps: &[Step]) -> (u64, u64) {
    let (mut x, mut acc) = (1u64, 0u64);
    for step in steps.iter().filter(|s| !s.abandoned) {
        if step.clauses.reads() {
            acc = acc.wrapping_add(x);
        }
        x = step.clauses.written(x).unwrap_or(x);
    }
    (x, acc)
}

/// The two shapes of "one chain".
trait Subject: ompss::Accessible + Clone + Send + Sync + 'static {
    fn get(&self, ctx: &ompss::TaskContext<'_>) -> u64;
    fn update(&self, ctx: &ompss::TaskContext<'_>, f: impl FnOnce(u64) -> u64);
}

impl Subject for ompss::Data<u64> {
    fn get(&self, ctx: &ompss::TaskContext<'_>) -> u64 {
        *ctx.read(self)
    }
    fn update(&self, ctx: &ompss::TaskContext<'_>, f: impl FnOnce(u64) -> u64) {
        let mut g = ctx.write(self);
        *g = f(*g);
    }
}

impl Subject for ompss::Chunk<u64> {
    fn get(&self, ctx: &ompss::TaskContext<'_>) -> u64 {
        ctx.read_chunk(self)[0]
    }
    fn update(&self, ctx: &ompss::TaskContext<'_>, f: impl FnOnce(u64) -> u64) {
        let mut g = ctx.write_chunk(self);
        g[0] = f(g[0]);
    }
}

/// What must not depend on the shape of the chain.
#[derive(Debug, PartialEq, Eq)]
struct ParityOutcome {
    value: u64,
    acc: u64,
    renames: u64,
    recycled: u64,
    elided: u64,
    fallbacks: u64,
    bytes_held: u64,
}

fn run_parity<H: Subject>(
    config: RuntimeConfig,
    subject: impl FnOnce(&Runtime) -> H,
    steps: &[Step],
) -> (ParityOutcome, u64) {
    let rt = Runtime::new(config);
    let x = subject(&rt);
    let acc = rt.data(0u64);
    let mut gate = Arc::new(std::sync::atomic::AtomicBool::new(false));
    for step in steps {
        let clauses = step.clauses;
        let builder = rt.task();
        let builder = match clauses {
            Clauses::In => builder.input(&x),
            Clauses::Out(_) => builder.output(&x),
            Clauses::InOut => builder.inout(&x),
            Clauses::Conc(_) => builder.concurrent(&x),
            Clauses::InThenOut(_) => builder.input(&x).output(&x),
            Clauses::OutThenIn(_) => builder.output(&x).input(&x),
        };
        let builder = if clauses.reads() {
            builder.inout(&acc)
        } else {
            builder
        };
        if step.abandoned {
            drop(builder);
        } else {
            let (x, acc, gate) = (x.clone(), acc.clone(), gate.clone());
            builder.spawn(move |ctx| {
                while !gate.load(Ordering::Acquire) {
                    std::thread::yield_now();
                }
                // Read before writing: with the write bound in place (no
                // renaming, or a fallback) that is the only order in which
                // the read still sees the pre-task value.
                if clauses.reads() {
                    let seen = x.get(ctx);
                    let mut a = ctx.write(&acc);
                    *a = a.wrapping_add(seen);
                }
                if clauses.written(0).is_some() {
                    ctx.critical("hot-path-parity", || {
                        x.update(ctx, |old| clauses.written(old).unwrap_or(old))
                    });
                }
            });
        }
        if step.drain_after {
            gate.store(true, Ordering::Release);
            rt.taskwait();
            gate = Arc::new(std::sync::atomic::AtomicBool::new(false));
        }
    }
    gate.store(true, Ordering::Release);
    rt.taskwait();
    let stats = rt.stats();
    assert!(rt.take_panics().is_empty(), "a parity body panicked");
    rt.audit().expect("parity run audits clean");
    let value = Arc::new(AtomicU64::new(0));
    {
        let (x, value) = (x.clone(), value.clone());
        rt.task()
            .input(&x)
            .spawn(move |ctx| value.store(x.get(ctx), Ordering::Release));
    }
    rt.taskwait();
    let outcome = ParityOutcome {
        value: value.load(Ordering::Acquire),
        acc: rt.fetch(&acc),
        renames: stats.renames,
        recycled: stats.renames_recycled,
        elided: stats.renames_elided,
        fallbacks: stats.rename_fallbacks,
        bytes_held: stats.rename_bytes_held,
    };
    rt.shutdown();
    (outcome, stats.chunk_renames)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The same clause program over a versioned `Data<u64>` and over a
    /// one-chunk, one-element versioned partition: same final values, same
    /// rename / recycle / elision / fallback counts, same bytes held, under
    /// every combination of the renaming knobs. Only `chunk_renames` tells
    /// the two apart.
    #[test]
    fn one_chain_behaves_the_same_as_a_data_and_as_a_chunk(
        steps in proptest::collection::vec(step_strategy(), 1..24),
    ) {
        let expected = parity_sequential(&steps);
        for knobs in 0u32..32 {
            let bit = |i: u32| knobs & (1 << i) != 0;
            let base = RuntimeConfig::default()
                .with_workers(2)
                .with_renaming(bit(0))
                .with_rename_elision(bit(1))
                .with_rename_max_versions(if bit(2) { 4 } else { 1 })
                .with_rename_pool_depth(if bit(3) { 2 } else { 0 });
            let config = if bit(4) { base } else { base.with_rename_memory_cap(0) };
            let (mut data, data_chunk_renames) =
                run_parity(config.clone(), |rt| rt.versioned_data(1u64), &steps);
            let (chunk, chunk_renames) = run_parity(
                config.clone(),
                |rt| rt.versioned_partitioned(vec![1u64], 1).chunk(0),
                &steps,
            );
            prop_assert_eq!((data.value, data.acc), expected, "sequential semantics, {:?}", config);
            if bit(3) {
                // With a recycle pool, *which* superseded versions a full
                // pool parks and which it drops follows completion order,
                // and the canonical first version carries no reservation:
                // the bytes held are bounded, not a function of the program.
                let bound = (2 + 1) * std::mem::size_of::<u64>() as u64;
                prop_assert!(data.bytes_held <= bound && chunk.bytes_held <= bound);
                data.bytes_held = chunk.bytes_held;
            }
            prop_assert_eq!(&data, &chunk, "one chain, two shapes, {:?}", config);
            prop_assert_eq!(data_chunk_renames, 0);
            prop_assert_eq!(chunk_renames, chunk.renames);
        }
    }
}

// ---------------------------------------------------------------------------
// 2. Single-pass workloads elide every rename, deterministically
// ---------------------------------------------------------------------------

#[test]
fn single_pass_chunk_writes_elide_every_rename() {
    // Rotate-shaped: every output band is written exactly once, then read.
    // Nothing ever holds a band's version when its writer resolves, so every
    // rename is elided — zero allocations, zero WAR/WAW — deterministically.
    let rt = Runtime::new(RuntimeConfig::default().with_workers(4));
    let src = rt.data(vec![7u64; 64]);
    let dst = rt.versioned_partitioned(vec![0u64; 64], 8);
    let sum = rt.data(0u64);
    for chunk in dst.chunk_handles() {
        let src = src.clone();
        rt.task().input(&src).output(&chunk).spawn(move |ctx| {
            let base = chunk.elem_range().start as u64;
            let s = ctx.read(&src);
            for (i, v) in ctx.write_chunk(&chunk).iter_mut().enumerate() {
                *v = s[0] + base + i as u64;
            }
        });
    }
    for chunk in dst.chunk_handles() {
        let sum = sum.clone();
        rt.task().input(&chunk).inout(&sum).spawn(move |ctx| {
            let s: u64 = ctx.read_chunk(&chunk).iter().sum();
            *ctx.write(&sum) += s;
        });
    }
    rt.taskwait();
    let stats = rt.stats();
    assert_eq!(stats.renames, 0, "single-pass writes allocate no versions");
    assert_eq!(
        stats.renames_elided, 8,
        "every chunk write elided its rename"
    );
    assert_eq!(
        stats.war_edges + stats.waw_edges,
        0,
        "elision adds no false dependence"
    );
    assert_eq!(stats.rename_bytes_held, 0);
    let expected: u64 = (0..64).map(|i| 7 + i).sum();
    assert_eq!(rt.into_inner(sum), expected);
    rt.shutdown();
}

// ---------------------------------------------------------------------------
// 2b. The output-before-input aliasing corner is un-elided at bind time
// ---------------------------------------------------------------------------

#[test]
fn output_before_input_unelides_instead_of_aliasing() {
    // Regression test for the elision corner PR 4 documented: with the
    // current version unreferenced, `output(&x)` elides its rename in place;
    // an `input(&x)` declared *afterwards* on the same task would then read
    // the very storage the task overwrites. The builder must detect the
    // pattern and un-elide the write, so the read observes the pre-task
    // value whatever the clause order.
    let rt = Runtime::new(RuntimeConfig::default().with_workers(2));
    let x = rt.versioned_data(42u64);
    let (w, r) = (x.clone(), x.clone());
    rt.task().output(&w).input(&r).spawn(move |ctx| {
        // Write first, then read: under the old aliasing behaviour the read
        // would see 100 (inout-like in-place semantics).
        *ctx.write(&w) = 100;
        assert_eq!(*ctx.read(&r), 42, "input must observe the pre-task value");
    });
    rt.taskwait();
    assert!(rt.take_panics().is_empty(), "body assertions all held");
    let stats = rt.stats();
    assert_eq!(
        stats.renames, 1,
        "the elided output was converted to a rename"
    );
    assert_eq!(stats.renames_elided, 0, "the elision was un-counted");
    assert_eq!(stats.tasks_panicked, 0);
    assert_eq!(rt.into_inner(x), 100, "the fresh version was committed");
    rt.shutdown();
}

#[test]
fn chunk_output_before_whole_input_unelides_just_that_chunk() {
    // The same corner at region granularity: an elided chunk `output`
    // followed by a whole-array `input` on the same partition.
    let rt = Runtime::new(RuntimeConfig::default().with_workers(2));
    let part = rt.versioned_partitioned(vec![1u64; 12], 4);
    let chunk0 = part.chunk(0);
    let whole = part.whole();
    rt.task().output(&chunk0).input(&whole).spawn(move |ctx| {
        ctx.write_chunk(&chunk0).fill(9);
        let snapshot = ctx.gather_whole(&whole);
        assert_eq!(
            snapshot,
            vec![1u64; 12],
            "the whole-array read sees every pre-task chunk value"
        );
    });
    rt.taskwait();
    assert!(rt.take_panics().is_empty());
    let stats = rt.stats();
    assert_eq!(stats.chunk_renames, 1, "only the written chunk renamed");
    assert_eq!(stats.renames_elided, 0);
    let out = rt.into_vec(part);
    assert_eq!(out[..4], [9, 9, 9, 9]);
    assert_eq!(out[4..], [1; 8][..]);
    rt.shutdown();
}

#[test]
fn replay_reruns_unelision_instead_of_baking_in_the_aliased_write() {
    // The same corner through graph capture/replay. A template records
    // *clauses*, not resolved version bindings — so even though the capture
    // iteration's `output(&x)` initially elided (and was then un-elided by
    // the trailing `input(&x)`), every replay pass must re-run that same
    // bind-time analysis against the live version state. If capture instead
    // baked in the momentary aliased binding, every replayed read would see
    // the task's own write.
    let rt = Runtime::new(RuntimeConfig::default().with_workers(2));
    let x = rt.versioned_data(42u64);
    let mut scope = rt.capture();
    {
        let (w, r) = (x.clone(), x.clone());
        scope.task().output(&w).input(&r).spawn(move |ctx| {
            let pass = ctx.replay_pass();
            *ctx.write(&w) = 100 + pass;
            let expected = if pass == 0 { 42 } else { 100 + pass - 1 };
            assert_eq!(
                *ctx.read(&r),
                expected,
                "input must observe the pre-pass value on every replay"
            );
        });
    }
    let template = scope.finish();
    rt.taskwait();
    for _ in 0..3 {
        rt.replay(&template, &ompss::ReplayBindings::new());
        rt.taskwait();
    }
    assert!(
        rt.take_panics().is_empty(),
        "body assertions held on every pass"
    );
    let stats = rt.stats();
    assert_eq!(
        stats.renames, 4,
        "capture + each of the 3 replays un-elided its output into a rename"
    );
    assert_eq!(
        stats.renames_elided, 0,
        "no pass left the aliasing elision in place"
    );
    assert_eq!(stats.tasks_panicked, 0);
    // The template holds clause/body clones of `x`; release them first so
    // the handle can be unwrapped.
    drop(template);
    assert_eq!(
        rt.into_inner(x),
        103,
        "the last pass's fresh version was committed"
    );
    rt.shutdown();
}

#[test]
fn unelide_under_exhausted_budget_keeps_documented_fallback_aliasing() {
    // With a zero rename budget the un-elide cannot allocate a version, so
    // the in-place binding — and the documented inout-like degradation —
    // remain, counted as a fallback.
    let rt = Runtime::new(
        RuntimeConfig::default()
            .with_workers(2)
            .with_rename_memory_cap(0),
    );
    let x = rt.versioned_data(7u64);
    let (w, r) = (x.clone(), x.clone());
    rt.task().output(&w).input(&r).spawn(move |ctx| {
        *ctx.write(&w) = 50;
        assert_eq!(*ctx.read(&r), 50, "budget fallback aliases in place");
    });
    rt.taskwait();
    assert!(rt.take_panics().is_empty());
    let stats = rt.stats();
    assert_eq!(stats.renames, 0);
    assert_eq!(stats.renames_elided, 1, "the elision stays counted");
    assert!(
        stats.rename_fallbacks >= 1,
        "the refused un-elide is a fallback"
    );
    assert_eq!(rt.into_inner(x), 50);
    rt.shutdown();
}

// ---------------------------------------------------------------------------
// 2c. The same corners behind a predecessor that completed under a held gate
// ---------------------------------------------------------------------------
//
// Elision binds a version in place when its binding count is zero, relying
// on "count zero ⇒ every earlier task on the version is a tombstone". A
// completing worker takes no tracker gate: publishing `Completed` makes its
// history references tombstones, and only then does it release its tickets.
// The three regressions above are re-run with a predecessor on the handle
// that completes — body, completion, ticket release — while this thread
// holds the gate, and must come out the same. (The test names keep the
// older word for this history: the retirement that used to be deferred.)

/// Spin until `done()`, failing loudly instead of hanging.
fn wait_until(what: &str, done: impl Fn() -> bool) {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
    while !done() {
        assert!(
            std::time::Instant::now() < deadline,
            "timed out waiting for {what}"
        );
        std::thread::yield_now();
    }
}

fn two_worker_runtime() -> Runtime {
    Runtime::new(RuntimeConfig::default().with_workers(2))
}

/// Open `go` while this thread holds the tracker gate and wait for the
/// tasks blocked on it to finish completely: none of them needs the gate.
fn finish_under_a_held_gate(rt: &Runtime, go: &std::sync::atomic::AtomicBool) {
    let hold = rt.hold_tracker();
    go.store(true, Ordering::Release);
    wait_until("tasks to finish under a held gate", || {
        rt.in_flight_tasks() == 0
    });
    drop(hold);
}

#[test]
fn output_before_input_unelides_behind_a_deferred_retirement() {
    let rt = two_worker_runtime();
    let x = rt.versioned_data(41u64);
    let go = Arc::new(std::sync::atomic::AtomicBool::new(false));
    {
        // The predecessor updates the current version in place; it holds the
        // version's only binding until it has completed.
        let (x, go) = (x.clone(), go.clone());
        rt.task().inout(&x).spawn(move |ctx| {
            while !go.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
            *ctx.write(&x) += 1;
        });
    }
    finish_under_a_held_gate(&rt, &go);
    let before = rt.stats();
    let (w, r) = (x.clone(), x.clone());
    rt.task().output(&w).input(&r).spawn(move |ctx| {
        *ctx.write(&w) = 100;
        assert_eq!(
            *ctx.read(&r),
            42,
            "input must observe the predecessor's value"
        );
    });
    let registered = rt.stats();
    assert_eq!(
        registered.war_edges + registered.waw_edges,
        before.war_edges + before.waw_edges,
        "the retired predecessor passes on no false dependence"
    );
    rt.taskwait();
    assert!(rt.take_panics().is_empty(), "body assertions all held");
    let stats = rt.stats();
    assert_eq!(
        stats.renames, 1,
        "the elided output was converted to a rename"
    );
    assert_eq!(stats.renames_elided, 0, "the elision was un-counted");
    assert_eq!(rt.into_inner(x), 100, "the fresh version was committed");
    rt.shutdown();
}

#[test]
fn chunk_output_before_whole_input_unelides_behind_a_deferred_retirement() {
    let rt = two_worker_runtime();
    let part = rt.versioned_partitioned(vec![0u64; 12], 4);
    let go = Arc::new(std::sync::atomic::AtomicBool::new(false));
    for chunk in part.chunk_handles() {
        // First writes: each elides its rename and fills its chunk in place.
        let go = go.clone();
        rt.task().output(&chunk).spawn(move |ctx| {
            while !go.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
            ctx.write_chunk(&chunk).fill(1);
        });
    }
    finish_under_a_held_gate(&rt, &go);
    let before = rt.stats();
    assert_eq!((before.renames, before.renames_elided), (0, 3));
    let chunk0 = part.chunk(0);
    let whole = part.whole();
    rt.task().output(&chunk0).input(&whole).spawn(move |ctx| {
        ctx.write_chunk(&chunk0).fill(9);
        let snapshot = ctx.gather_whole(&whole);
        assert_eq!(
            snapshot,
            vec![1u64; 12],
            "the whole-array read sees every pre-task chunk value"
        );
    });
    rt.taskwait();
    assert!(rt.take_panics().is_empty());
    let stats = rt.stats();
    assert_eq!(stats.chunk_renames, 1, "only the written chunk renamed");
    assert_eq!(
        stats.renames_elided, 3,
        "the un-elided write was un-counted"
    );
    assert_eq!(stats.war_edges + stats.waw_edges, 0);
    let out = rt.into_vec(part);
    assert_eq!(out[..4], [9, 9, 9, 9]);
    assert_eq!(out[4..], [1; 8][..]);
    rt.shutdown();
}

#[test]
fn replay_reruns_unelision_behind_deferred_retirements() {
    // Every pass — the capture iteration and each replay — completes while
    // the gate is held, so every pass's bind-time analysis runs against a
    // predecessor that completed without the tracker.
    let rt = two_worker_runtime();
    let x = rt.versioned_data(42u64);
    let released = Arc::new(AtomicU64::new(0));
    let mut scope = rt.capture();
    {
        let (w, r) = (x.clone(), x.clone());
        let released = released.clone();
        scope.task().output(&w).input(&r).spawn(move |ctx| {
            let pass = ctx.replay_pass();
            while released.load(Ordering::Acquire) <= pass {
                std::thread::yield_now();
            }
            *ctx.write(&w) = 100 + pass;
            let expected = if pass == 0 { 42 } else { 100 + pass - 1 };
            assert_eq!(
                *ctx.read(&r),
                expected,
                "input must observe the pre-pass value on every replay"
            );
        });
    }
    let template = scope.finish();
    for pass in 0..4u64 {
        if pass > 0 {
            rt.replay(&template, &ompss::ReplayBindings::new());
        }
        let hold = rt.hold_tracker();
        released.store(pass + 1, Ordering::Release);
        wait_until("the pass to finish under a held gate", || {
            rt.in_flight_tasks() == 0
        });
        drop(hold);
    }
    rt.taskwait();
    assert!(
        rt.take_panics().is_empty(),
        "body assertions held on every pass"
    );
    let stats = rt.stats();
    assert_eq!(
        stats.renames, 4,
        "capture + each of the 3 replays un-elided its output into a rename"
    );
    assert_eq!(
        stats.renames_elided, 0,
        "no pass left the aliasing elision in place"
    );
    assert_eq!(stats.war_edges + stats.waw_edges, 0);
    drop(template);
    assert_eq!(
        rt.into_inner(x),
        103,
        "the last pass's fresh version was committed"
    );
    rt.shutdown();
}

// ---------------------------------------------------------------------------
// 3. Optimistic-path fallback under a GC storm
// ---------------------------------------------------------------------------

fn gc_storm(config: RuntimeConfig, spawners: usize, per_thread: usize) -> ompss::RuntimeStats {
    let rt = Runtime::new(config);
    let bodies = Arc::new(AtomicU64::new(0));
    let chains: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..spawners)
            .map(|_| {
                let rt = &rt;
                let bodies = bodies.clone();
                scope.spawn(move || {
                    // A single-access inout chain: every registration is
                    // fast-path eligible, every edge is load-bearing (a lost
                    // edge loses an increment).
                    let chain = rt.data(0u64);
                    for _ in 0..per_thread {
                        let c = chain.clone();
                        let bodies = bodies.clone();
                        rt.task().inout(&c).spawn(move |ctx| {
                            bodies.fetch_add(1, Ordering::Relaxed);
                            let mut c = ctx.write(&c);
                            *c += 1;
                        });
                    }
                    chain
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    rt.taskwait();
    let stats = rt.stats();
    let total = (spawners * per_thread) as u64;
    assert_eq!(stats.tasks_spawned, total);
    assert_eq!(stats.tasks_executed, total);
    assert_eq!(bodies.load(Ordering::Relaxed), total);
    for chain in &chains {
        assert_eq!(rt.fetch(chain), per_thread as u64, "no chain edge was lost");
    }
    // Every registration had accesses: hits + fallbacks must account for
    // all of them (including the fetch tasks spawned just above).
    let after_fetch = rt.stats();
    assert_eq!(
        after_fetch.tracker_fast_path_hits + after_fetch.tracker_fast_path_fallbacks,
        after_fetch.tasks_spawned,
    );
    rt.taskwait();
    assert!(rt.audit().expect("clean drain").quiescent);
    rt.shutdown();
    stats
}

fn storm_tasks() -> usize {
    if cfg!(debug_assertions) {
        300
    } else {
        1200
    }
}

#[test]
fn fast_path_survives_gc_every_spawn() {
    // GC after every single spawn: each sweep holds the gate odd, so
    // optimistic registrations keep colliding with sweeps and falling back
    // mid-storm. Nothing may be lost. (Whether a given run records fallbacks
    // depends on timing — the deterministic fallback check is the tracker's
    // unit test `a_registration_waits_out_a_held_gate_and_counts_as_a_fallback`.)
    gc_storm(
        RuntimeConfig::default()
            .with_workers(4)
            .with_tracker_gc_interval(1),
        4,
        storm_tasks(),
    );
}

#[test]
fn fast_path_storm_with_periodic_gc_and_disabled_gc() {
    // Default cadence, and the cadence knob's edge cases: interval 0
    // disables the periodic sweep entirely (quiescent taskwait still
    // collects, so the drain check inside gc_storm stays valid).
    gc_storm(RuntimeConfig::default().with_workers(4), 4, storm_tasks());
    gc_storm(
        RuntimeConfig::default()
            .with_workers(2)
            .with_tracker_gc_interval(0),
        2,
        storm_tasks(),
    );
    // One spawner on the default configuration: with nobody else inserting,
    // a single-access workload is fast-path dominated.
    let stats = gc_storm(RuntimeConfig::default(), 1, storm_tasks());
    assert!(
        stats.tracker_fast_path_rate() >= Some(0.9),
        "single-access workload must take the fast path >= 90% of the time: {} hits, {} fallbacks",
        stats.tracker_fast_path_hits,
        stats.tracker_fast_path_fallbacks,
    );
}

#[test]
fn forced_locked_storm_matches_invariants() {
    // The forced-fallback configuration survives the same storm (it is the
    // equivalence reference); every registration counts as a fallback.
    let stats = gc_storm(
        RuntimeConfig::default()
            .with_workers(4)
            .with_fault_plan(FaultPlan::seeded(0).tracker_fallback_one_in(1))
            .with_tracker_gc_interval(64),
        4,
        storm_tasks(),
    );
    assert_eq!(stats.tracker_fast_path_hits, 0);
    assert_eq!(stats.tracker_fast_path_fallbacks, stats.tasks_spawned);
}
